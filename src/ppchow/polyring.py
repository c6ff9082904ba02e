"""Homogeneous multivariate polynomials over Q and formal rational functions.

Polynomials are always stored in ambient coordinates; "a polynomial on the
span of a cone" is any ambient polynomial, compared modulo vanishing on that
span (:func:`equal_on_span`).  Restriction to a span is a fixed linear map,
so each fan and complex gives every pair of its adjacency that meets in one
span the same :class:`Span`, which keeps the vanishing rows per (n, k) for
:func:`gluing_kernel` and the validators.  The adjacency holds a spanning
forest of each meet's star, whose conditions imply those of every meeting
pair.  Scaling a row to a primitive integer vector, sharing it between
pairs and leaving out the implied pairs change no row space, hence neither
the unique RREF of a gluing system nor the kernel read off it.  Rational
functions keep their denominators as factored lists of linear forms and are
only ever collapsed to polynomials by exact division, never by truncation.
:class:`Piecewise` is the one base of the piecewise carriers (PP functions
on fans, affine PP functions, vertex and edge tuples): it keeps their parts,
one tuple in the layout's fixed order, builds every arithmetic result
through one unchecked builder, and gives their coordinates and linear
combinations; the carriers' constructors share the part checks here.  All
derived data of the package is memoized by one routine, :func:`_memo`, here
in the lowest module with any.
"""

from fractions import Fraction
import functools
from math import prod
from operator import add, mul

from .errors import DegreeMismatch, NotPolynomial
from .qlinalg import kernel_basis, primitive, primitive_ints, rat, rat_str, vec


def _memo(build):
    """Keep ``build(obj, *args)`` in ``obj._cache`` under ``(build, *args)``.

    The key holds the builder itself, so no two builders share an entry.  A
    result is built once per object and arguments, None included; a build
    that raises keeps nothing.  The arguments must be hashable and already
    normalized.
    """
    @functools.wraps(build)
    def memo(obj, *args):
        cache, key = obj._cache, (build, *args)
        if key not in cache:
            cache[key] = build(obj, *args)
        return cache[key]
    return memo


class HomogPoly:
    """A homogeneous polynomial over Q in ``dim`` ambient variables.

    Coefficients are stored sparsely as a map from exponent tuples (summing
    to ``degree``) to nonzero rationals.  The zero polynomial carries a
    degree like every other one; there is one zero per (dim, degree).
    """

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim, degree, coeffs=None):
        self.dim = dim
        self.degree = degree
        clean = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(expo)
            c = rat(c)
            if len(expo) != dim or any(type(e) is not int or e < 0 for e in expo):
                raise ValueError(f"bad exponent {expo} for dimension {dim}")
            if sum(expo) != degree:
                raise ValueError(f"exponent {expo} is not homogeneous of degree {degree}")
            if c != 0:
                clean[expo] = clean.get(expo, Fraction(0)) + c
        self.coeffs = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _trusted(cls, dim, degree, coeffs):
        """The polynomial with these coefficients unchecked: int exponent
        tuples of length ``dim`` summing to ``degree``, nonzero Fraction
        values.  Arithmetic on checked operands builds its results here."""
        p = cls.__new__(cls)
        p.dim, p.degree, p.coeffs = dim, degree, coeffs
        return p

    @classmethod
    def zero(cls, dim, degree):
        return cls._trusted(dim, degree, {})

    @classmethod
    def constant(cls, dim, value):
        value = rat(value)
        return cls(dim, 0, {(0,) * dim: value} if value != 0 else {})

    @classmethod
    def linear_form(cls, coefficients):
        coefficients = vec(coefficients)
        d = len(coefficients)
        return cls(d, 1, {tuple(int(i == j) for j in range(d)): c
                          for i, c in enumerate(coefficients)})

    @classmethod
    def variable(cls, dim, index):
        return cls(dim, 1, {tuple(int(i == index) for i in range(dim)): 1})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, HomogPoly) and self.dim == other.dim
                and self.coeffs == other.coeffs
                and (self.degree == other.degree or self.is_zero()))

    def __hash__(self):
        return hash((self.dim, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError("ambient dimension mismatch")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DegreeMismatch(f"cannot add degrees {self.degree} and {other.degree}")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return HomogPoly._trusted(self.dim, self.degree, {e: c for e, c in out.items() if c})

    def __neg__(self):
        return HomogPoly._trusted(self.dim, self.degree, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.dim != other.dim:
            raise ValueError("ambient dimension mismatch")
        return HomogPoly._trusted(self.dim, self.degree + other.degree,
                                  _times(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def scale(self, c):
        c = rat(c)
        return HomogPoly._trusted(self.dim, self.degree,
                                  {e: c * v for e, v in self.coeffs.items()} if c else {})

    def evaluate(self, point):
        point = vec(point)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                term *= x ** k
            total += term
        return total

    def substitute(self, images):
        """Compose with a linear substitution x_i -> images[i].

        Each image is a HomogPoly of formal degree one (possibly zero, which
        kills the variable) in a common target dimension; the result is
        homogeneous of the same degree in that dimension.
        """
        if len(images) != self.dim:
            raise ValueError("need one image per variable")
        tdim = images[0].dim if images else 0
        if any(img.dim != tdim or img.degree != 1 and not img.is_zero() for img in images):
            raise ValueError("images must be forms of degree one in one dimension")
        out = {}
        for e, c in self.coeffs.items():
            term = {(0,) * tdim: c}
            for img, k in zip(images, e):
                for _ in range(k):
                    term = _times(term, img.coeffs)
            for t, v in term.items():
                out[t] = out[t] + v if t in out else v
        return HomogPoly._trusted(tdim, self.degree, {t: v for t, v in out.items() if v})

    def leading(self):
        """Leading (exponent, coefficient) in graded-lex order."""
        if self.is_zero():
            return None
        e = max(self.coeffs)
        return e, self.coeffs[e]

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = "xyzw" if self.dim <= 4 else None
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mono = "*".join(
                (names[i] if names else f"x{i}") + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k > 0)
            if mono:
                coef = "" if c == 1 else ("-" if c == -1 else rat_str(c) + "*")
                parts.append(coef + mono)
            else:
                parts.append(rat_str(c))
        return " + ".join(parts).replace("+ -", "- ")


def _times(a, b):
    """The product of two coefficient maps, zero coefficients dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if c}


class Piecewise:
    """The vector space every piecewise carrier is: a tuple of parts on a
    domain (a fan or a complex), added, scaled and multiplied part by part.

    A carrier keeps its domain (``domain``, which a subclass also names
    ``fan`` or ``complex``), its degree, and ``pieces``: its parts in the
    fixed order of its layout, polynomials, or piecewise functions for a
    tuple of them.  A subclass's constructor is its one checked way in; it
    takes the parts by key or in layout order and refuses a part off the
    layout or of another degree.  :meth:`_of` builds a carrier unchecked,
    and every arithmetic result is built there.  The zero function sits in
    every graded piece, so it adds to any degree and equals every zero.
    """

    __slots__ = ("domain", "degree", "pieces")

    @classmethod
    def _of(cls, domain, degree, pieces):
        """The carrier with these parts, unchecked: ``pieces`` is a tuple in
        the layout of ``domain``, one part per position, each in the
        domain's dimension (a piecewise part on the fan of its position) and
        of degree ``degree``, a zero part too.

        The constructor's checks cannot fail on the result of arithmetic on
        checked operands.  Sums, differences and part-wise products pair the
        parts of two carriers on one domain position by position, and a
        scalar or a global polynomial acts on each part, so the count and
        the fan of each part are the operands'.  Polynomial and piecewise
        arithmetic keep the dimension and give each part, zero or not, the
        degree of the result.  Restriction to a span is a ring map, so parts
        that glue still glue.  The special-fiber maps that lay out parts
        themselves build here too, with parts the constructor would keep as
        they are.  So do the maps whose parts glue by construction: in
        ``ppfan`` the zero and constant functions, the generators phi_tau,
        the graded bases (eliminated face-ring monomials, or gluing
        kernels), pullback (a piece per source cone read off its image),
        pushforward (exact localization sums) and the restriction to
        height zero (a ring map); in ``specialfiber`` the
        one-pass dd^c (which ``ddc_model`` compares with the checked
        -gamma.rho), the parts of the vertical lift (whose sum is checked)
        and the affine basis (a gluing kernel); the generators that the
        cycle classes of ``cycles`` sum; and the zero of the closed flavor
        in ``limits``.
        """
        out = object.__new__(cls)
        out.domain, out.degree, out.pieces = domain, degree, pieces
        return out

    def _rebuild(self, parts, degree):
        return self._of(self.domain, degree, tuple(parts))

    def _same_domain(self, other):
        return type(other) is type(self) and self.domain.same_as(other.domain)

    def _check_same_domain(self, other):
        if not self._same_domain(other):
            raise ValueError("operands live on different domains")

    def is_zero(self):
        return all(p.is_zero() for p in self.pieces)

    def _disagreement(self):
        """(p, q, m): the first pair of positions in the domain's adjacency
        whose parts, one polynomial per maximal member, differ on the span of
        their meet, member m of the domain; None when every pair agrees."""
        dom, parts = self.domain, self.pieces
        for p, q, span, meet in dom.adjacency():
            if not equal_on_span(parts[p], parts[q], span):
                return p, q, dom.index(meet)
        return None

    def __eq__(self, other):
        return self._same_domain(other) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __add__(self, other):
        self._check_same_domain(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeMismatch(f"adding degrees {self.degree} and {other.degree}")
        return self._rebuild(map(add, self.pieces, other.pieces), self.degree)

    def __neg__(self):
        return self._rebuild([-p for p in self.pieces], self.degree)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._rebuild([p.scale(c) for p in self.pieces], self.degree)

    def __mul__(self, other):
        """Part-wise product; a global polynomial acts on every part, and a
        number scales."""
        if isinstance(other, Piecewise):
            self._check_same_domain(other)
            return self._rebuild(map(mul, self.pieces, other.pieces),
                                 self.degree + other.degree)
        if isinstance(other, HomogPoly):
            return self._rebuild([p * other for p in self.pieces],
                                 self.degree + other.degree)
        return self.scale(other)

    __rmul__ = __mul__

    def _polys(self):
        for p in self.pieces:
            if isinstance(p, Piecewise):
                yield from p._polys()
            else:
                yield p

    def coords(self):
        """Coefficients of every polynomial, part by part, in
        ``monomial_exponents`` order of the carrier's degree."""
        polys = list(self._polys())
        monos = monomial_exponents(polys[0].dim, self.degree) if polys else ()
        return tuple(p.coeffs.get(e, 0) for p in polys for e in monos)

    def combine(self, basis, coeffs):
        """This element plus the sum of c * b over the (c, b) with c != 0."""
        out = self
        for c, b in zip(coeffs, basis):
            if c != 0:
                out = out + b.scale(c)
        return out


def _regraded(part, degree, zero):
    """A part (a polynomial or a piecewise function) of a degree-``degree``
    carrier: ``part`` itself when it has that degree, ``zero`` when it is a
    zero of another degree; any other part is refused."""
    if part.degree == degree:
        return part
    if part.is_zero():
        return zero
    raise DegreeMismatch(f"piece of degree {part.degree} in a degree-{degree} function")


def _graded_polys(polys, dim, degree):
    """The polynomial parts of a degree-``degree`` carrier in ``dim``
    variables, as a tuple of parts of that degree."""
    zero = HomogPoly.zero(dim, degree)
    out = []
    for p in polys:
        if p.dim != dim:
            raise ValueError("piece has wrong ambient dimension")
        out.append(_regraded(p, degree, zero))
    return tuple(out)


def _layout(given, positions, zeros, noun, kind):
    """The parts ``given`` as a list in layout order: a sequence with one
    part per position, or a dict from keys of ``positions`` (key -> position)
    in which a missing key reads its entry of ``zeros``."""
    if isinstance(given, dict):
        parts = list(zeros)
        for key, part in given.items():
            if key not in positions:
                raise ValueError(f"{noun} {key!r} is not a {kind}")
            parts[positions[key]] = part
        return parts
    parts = list(given)
    if len(parts) != len(zeros):
        raise ValueError(f"need one piece per {kind}")
    return parts


def monomial_exponents(dim, degree):
    """All exponent tuples of the given total degree, in sorted order."""
    if dim == 0:
        return [()] if degree == 0 else []
    out = []
    for head in range(degree, -1, -1):
        for tail in monomial_exponents(dim - 1, degree - head):
            out.append((head,) + tail)
    return sorted(out)


def _span_images(basis, dim):
    """The restrictions of the ``dim`` coordinates to the span of ``basis``:
    x_i = sum_j s_j basis[j][i], a form in ``len(basis)`` parameters."""
    units = [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
    return [HomogPoly._trusted(len(basis), 1, {u: rat(b[i]) for u, b in zip(units, basis) if b[i]})
            for i in range(dim)]


class Span(tuple):
    """A basis of a meet's span, one object per distinct span of a fan or
    complex; its ``_cache`` keeps the vanishing rows per (dimension, degree)
    and reaches nothing but ints and exponent tuples."""

    def __init__(self, basis):
        self._cache = {}


@_memo
def _vanishing_rows(span, dim, k):
    """The conditions for a degree-k polynomial in ``dim`` variables to vanish
    on the span of the :class:`Span` ``span``: per parameter monomial, the
    (column, exponent, coefficient) of each monomial whose restriction has
    it, scaled to a primitive integer vector."""
    images = _span_images(span, dim)
    one = HomogPoly.constant(len(span), 1)
    monos = monomial_exponents(dim, k)
    restricted = [prod((img for img, power in zip(images, e) for _ in range(power)),
                       start=one).coeffs for e in monos]
    rows = []
    for pm in monomial_exponents(len(span), k):
        terms = [(col, e, r[pm]) for col, (e, r) in enumerate(zip(monos, restricted))
                 if pm in r]
        ints = primitive_ints([c for _, _, c in terms])
        rows.append(tuple((col, e, v) for (col, e, _), v in zip(terms, ints)))
    return tuple(rows)


def equal_on_span(p, q, subspace):
    """Do p and q agree as functions on the linear subspace spanned by the
    given vectors?"""
    if p.dim != q.dim:
        raise ValueError("ambient dimension mismatch")
    diff = p - q
    d = diff.coeffs
    if not d:
        return True
    span = subspace if isinstance(subspace, Span) else Span(subspace)
    return all(sum(v * d[e] for _, e, v in row if e in d) == 0
               for row in _vanishing_rows(span, p.dim, diff.degree))


def gluing_kernel(pairs, nblocks, dim, k):
    """Basis of the tuples of ``nblocks`` degree-k polynomials that agree on
    the span of each (a, b, span, ...) in ``pairs``, such as a domain's
    adjacency, ``span`` an RREF basis.

    Each vanishing row of a span gives one condition on the difference of
    blocks a and b.  The kernel is read off the RREF, so the basis does not
    depend on the order of the pairs.
    """
    monos = monomial_exponents(dim, k)
    m, rows = len(monos), []
    for a, b, span, *_ in pairs:
        if not isinstance(span, Span):
            span = Span(span)
        for terms in _vanishing_rows(span, dim, k):
            row = [0] * m * nblocks
            for col, _, v in terms:
                row[a * m + col] = v
                row[b * m + col] = -v
            rows.append(row)
    # with no conditions every tuple glues; one zero row carries the width
    return [tuple(HomogPoly._trusted(dim, k, {e: c for e, c in zip(monos, v[m * blk:m * blk + m])
                                              if c})
                  for blk in range(nblocks))
            for v in kernel_basis(rows or [[0] * m * nblocks])]


def divide_exact(p, divisor):
    """Exact quotient p / divisor, or (quotient, remainder) evidence.

    Multivariate long division by a single divisor in graded-lex order;
    returns (q, r) with p = q*divisor + r and no term of r divisible by the
    divisor's leading monomial.  Exactness of the division is r == 0.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead_e, lead_c = divisor.leading()
    quot = HomogPoly.zero(p.dim, max(p.degree - divisor.degree, 0))
    rem = HomogPoly.zero(p.dim, p.degree)
    work = p
    while not work.is_zero():
        e, c = work.leading()
        if all(a >= b for a, b in zip(e, lead_e)):
            me = tuple(a - b for a, b in zip(e, lead_e))
            mono = HomogPoly._trusted(p.dim, sum(me), {me: c / lead_c})
            quot = quot + mono if not quot.is_zero() else mono
            work = work - mono * divisor
        else:
            mono = HomogPoly._trusted(p.dim, sum(e), {e: c})
            rem = rem + mono if not rem.is_zero() else mono
            work = work - mono
    return quot, rem


def _canonical_linear(form):
    """Scale a linear form to integer coprime coefficients with positive
    leading coefficient; returns (canonical form, scalar) with
    form = scalar * canonical."""
    if form.degree != 1 or form.is_zero():
        raise ValueError("denominator factors must be nonzero linear forms")
    coeffs = [form.coeffs.get(tuple(1 if i == j else 0 for j in range(form.dim)), Fraction(0))
              for i in range(form.dim)]
    prim = list(primitive(coeffs))
    idx = next(i for i, c in enumerate(prim) if c != 0)
    if prim[idx] < 0:
        prim = [-c for c in prim]
    scalar = coeffs[idx] / prim[idx]
    return HomogPoly.linear_form(prim), scalar


class RatFun:
    """A formal quotient numerator / product of linear forms.

    The denominator is a multiset of canonical linear forms; it is never
    expanded.  Construction cancels numeric scalars into the numerator.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, linear_factors=()):
        den = {}
        scale = Fraction(1)
        for f in linear_factors:
            canon, scalar = _canonical_linear(f)
            scale *= scalar
            den[canon] = den.get(canon, 0) + 1
        self.numerator = numerator.scale(1 / scale) if scale != 1 else numerator
        self.denominator = den


def _common_denominator(terms):
    """(the lcm of the terms' denominators, as (linear form, multiplicity)
    pairs; each term's numerator times the factors of the lcm its own
    denominator lacks), so the sum of the terms is the sum of those
    numerators over the lcm."""
    lcm = {}
    for t in terms:
        for f, k in t.denominator.items():
            lcm[f] = max(lcm.get(f, 0), k)
    nums = []
    for t in terms:
        num = t.numerator
        for f, k in lcm.items():
            for _ in range(k - t.denominator.get(f, 0)):
                num = num * f
        nums.append(num)
    return tuple(lcm.items()), tuple(nums)


def _divide_out(total, factors, degree):
    """``total`` divided exactly by each (linear form, multiplicity) of
    ``factors`` in turn, the zero of degree ``degree`` when it is zero.
    Raises :class:`NotPolynomial` (with the remainder as witness) if any
    division fails."""
    if total.is_zero():
        return HomogPoly.zero(total.dim, max(degree, 0))
    for f, k in factors:
        for _ in range(k):
            total, rem = divide_exact(total, f)
            if not rem.is_zero():
                raise NotPolynomial("rational-function sum is not a polynomial", remainder=rem)
    return total


def ratfun_sum_to_poly(terms, dim=None, degree=None):
    """Exact sum of rational functions, collapsed to a polynomial.

    Brings all terms over the least common denominator, then divides the
    combined numerator by each linear factor in turn.  Raises
    :class:`NotPolynomial` (with the remainder as witness) if any division
    fails, which signals an invalid input map rather than a rounding issue.
    """
    terms = list(terms)
    if not terms:
        if dim is None or degree is None:
            raise ValueError("empty sum needs explicit dim and degree")
        return HomogPoly.zero(dim, max(degree, 0))
    factors, nums = _common_denominator(terms)
    return _divide_out(sum(nums[1:], nums[0]), factors, degree if degree is not None else 0)
