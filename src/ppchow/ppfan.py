"""Piecewise polynomial functions on fans.

A PPFunction keeps one ambient homogeneous polynomial per maximal cone; the
lower faces are determined by restriction, and validity means any two pieces
agree on the span of the cones' intersection.  The pairs of maximal cones,
by position, and the spans of their meets are the fan's ``adjacency``, the
one complexes have too, and validation is the search for disagreeing pieces
that affine piecewise polynomials run as well.  On a regular fan the ray
generators phi_tau (1 on the primitive generator, 0 on the opposite facet)
generate everything; products, pullbacks along subdivisions, pushforwards and
the localization degree are all exact.
"""

from .errors import FaceMismatch, NotARay, NotProper, NotRegular
from .polyring import (HomogPoly, Piecewise, RatFun, _graded_polys, _memo,
                       gluing_kernel, ratfun_sum_to_poly)
from .polyhedra import Cone, _facets_paired, cone_over, recession_fan
from .qlinalg import mat, mat_inverse, primitive, solve, transpose, vec


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


def make_pp(fan, pieces, degree=None):
    """Validated PPFunction from raw per-maximal-cone polynomials."""
    pieces = list(pieces)
    if degree is None:
        degree = next((p.degree for p in pieces if not p.is_zero()), 0)
    return PPFunction(fan, degree, pieces)


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
    per cone.
    """
    if cone.dim != rank or len(cone.rays) != rank:
        raise NotRegular(f"cone {cone!r} is not full-dimensional simplicial")
    M = mat([[cone.rays[j][i] for j in range(rank)] for i in range(rank)])
    try:
        inv = mat_inverse(M)
    except ValueError:
        raise NotRegular(f"cone {cone!r} is degenerate")
    return tuple(HomogPoly.linear_form(row) for row in inv)


def phi_ray(fan, ray):
    """The canonical degree-one generator attached to a ray of a regular fan."""
    if not fan.is_regular():
        raise NotRegular("phi generators need a regular fan")
    v = _ray_vector(fan, ray)
    if not any(c.dim == 1 and c.rays == (v,) for c in fan.cones):
        raise NotARay(f"{v} is not a ray of the fan")
    pieces = []
    for c in fan.max_cones():
        # a cone of the fan contains one of its rays only as a ray of its own
        if v in c.rays:
            pieces.append(dual_forms(c, fan.rank)[c.rays.index(v)])
        else:
            pieces.append(HomogPoly.zero(fan.rank, 1))
    return PPFunction._of(fan, 1, tuple(pieces))


def phi_cone(fan, cone):
    """phi_sigma = product of phi_tau over the rays of sigma."""
    out = constant_pp(fan, 1)
    for r in cone.rays:
        out = out * phi_ray(fan, r)
    return out


def graded_basis(fan, k):
    """A Q-basis of the degree-k piecewise polynomials on the fan.

    One unknown polynomial per maximal cone, any two agreeing on the span of
    their intersection: the kernel of that gluing system is the graded piece.
    """
    return [PPFunction._of(fan, k, pieces)
            for pieces in gluing_kernel(fan.adjacency(), len(fan.maximal), fan.rank, k)]


def _system(basis, image):
    """A basis of a linear map's domain and the matrix whose columns are the
    coordinates of the basis images, as :func:`_preimage` solves it."""
    return basis, transpose(mat([image(b) for b in basis]))


def _preimage(system, target):
    """(the system's basis, coefficients on it of one preimage of ``target``,
    or None): ``solve``'s solution, free variables zero.  The one solver of
    coefficients on a basis, for cycles and the transfers alike."""
    basis, A = system
    if not basis:
        return basis, None if any(x != 0 for x in target) else ()
    return basis, solve(A, target)


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
    A target cone that the map does not split keeps its one piece.
    Properness (equal supports) is certified on each target cone by pairing
    the facets of the source cones inside it (:func:`_facets_paired`), kept
    on the map, failing or not.
    """
    src, tgt = fan_map.source, fan_map.target
    if not f.fan.same_as(src):
        raise ValueError("function does not live on the map's source")
    if not (src.is_regular() and tgt.is_regular()):
        raise NotRegular("pushforward needs regular fans")
    rank_ = tgt.rank
    pieces = []
    for t, tmax in enumerate(tgt.maximal):
        sigma = tgt.cones[tmax]
        # refuses a cone that is not full-dimensional, as the certificate needs
        numf = dual_forms(sigma, rank_)
        inside = _covering(fan_map, t)
        if inside is None:
            raise NotProper(f"source cones do not cover target cone {sigma!r}")
        if len(inside) == 1 and src.cones[src.maximal[inside[0]]].rays == sigma.rays:
            # sigma is not split: its term f_s * prod phi_sigma / prod phi_sigma is f_s
            pieces.append(f.pieces[inside[0]])
            continue
        terms = []
        for s in inside:
            num = f.pieces[s]
            for form in numf:
                num = num * form
            terms.append(RatFun(num, dual_forms(src.cones[src.maximal[s]], rank_)))
        pieces.append(ratfun_sum_to_poly(terms, dim=rank_, degree=f.degree))
    return PPFunction._of(tgt, f.degree, tuple(pieces))


@_memo
def _covering(fan_map, t):
    """The positions of the maximal source cones inside the t-th maximal
    target cone, or None when they do not cover it."""
    src, tgt = fan_map.source, fan_map.target
    inside = tuple(s for s, u in enumerate(fan_map.max_map) if u == t)
    covers = _facets_paired([src.cones[src.maximal[s]] for s in inside], tgt.rank,
                            tgt.cones[tgt.maximal[t]])
    return inside if covers else None


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
        # the lifted rays are rays of c(Pi), and a cone of a fan contains a
        # ray of the fan only as one of its own rays
        lift = {tuple(r) + (0,) for r in rec.cones[rmax].rays}
        pos = next(p for p, i in enumerate(fan.maximal) if lift <= set(fan.cones[i].rays))
        pieces.append(f.pieces[pos].substitute(images))
    return PPFunction._of(rec, f.degree, tuple(pieces))
