"""Homogeneous multivariate polynomials over Q and formal rational functions.

Polynomials are always stored in ambient coordinates; "a polynomial on the
span of a cone" is any ambient polynomial, compared modulo vanishing on that
span (:func:`equal_on_span`).  Restriction to a span is a fixed linear map,
so each fan and complex gives every pair meeting in one span the same
:class:`Span`, which keeps the vanishing rows per (n, k) for
:func:`gluing_kernel` and the validators.  Scaling a row to a primitive
integer vector and sharing it between pairs change no row space, hence
neither the unique RREF of a gluing system nor the kernel read off it.
Rational functions keep their denominators as
factored lists of linear forms and are only ever collapsed to polynomials by
exact division, never by truncation.  :class:`Piecewise` is the one base of
the piecewise carriers (PP functions on fans, affine PP functions, vertex and
edge tuples): their arithmetic, coordinates and linear combinations.
"""

from fractions import Fraction
from math import prod
from operator import add

from .errors import DegreeMismatch, NotPolynomial
from .qlinalg import kernel_basis, primitive_ints, rat, rat_str, vec


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

    A subclass names its domain (``_domain``), lists its parts in the
    layout's fixed order (``_parts``: polynomials, or piecewise functions
    for a tuple of them) and builds a new object of its own layout from
    parts of a given degree (``_rebuild``).  The zero function sits in every
    graded piece, so it adds to any degree and equals every zero.
    """

    __slots__ = ()

    def _same_domain(self, other):
        return type(other) is type(self) and self._domain().same_as(other._domain())

    def _check_same_domain(self, other):
        if not self._same_domain(other):
            raise ValueError("operands live on different domains")

    def is_zero(self):
        return all(p.is_zero() for p in self._parts())

    def _disagreement(self):
        """(p, q, m): the first pair of positions in the domain's adjacency
        whose parts, one polynomial per maximal member, differ on the span of
        their meet, member m of the domain; None when every pair agrees."""
        dom, parts = self._domain(), self._parts()
        for p, q, span, meet in dom.adjacency():
            if not equal_on_span(parts[p], parts[q], span):
                return p, q, dom.index(meet)
        return None

    def __eq__(self, other):
        return self._same_domain(other) and self._parts() == other._parts()

    def __hash__(self):
        return hash(self._parts())

    def __add__(self, other):
        self._check_same_domain(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeMismatch(f"adding degrees {self.degree} and {other.degree}")
        return self._rebuild([p + q for p, q in zip(self._parts(), other._parts())],
                             self.degree)

    def __neg__(self):
        return self._rebuild([-p for p in self._parts()], self.degree)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._rebuild([p.scale(c) for p in self._parts()], self.degree)

    def __mul__(self, other):
        """Part-wise product; a global polynomial acts on every part, and a
        number scales."""
        if isinstance(other, Piecewise):
            self._check_same_domain(other)
            return self._rebuild([p * q for p, q in zip(self._parts(), other._parts())],
                                 self.degree + other.degree)
        if isinstance(other, HomogPoly):
            return self._rebuild([p * other for p in self._parts()],
                                 self.degree + other.degree)
        return self.scale(other)

    __rmul__ = __mul__

    def _polys(self):
        for p in self._parts():
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


def monomial_exponents(dim, degree):
    """All exponent tuples of the given total degree, in sorted order."""
    if dim == 0:
        return [()] if degree == 0 else []
    out = []
    for head in range(degree, -1, -1):
        for tail in monomial_exponents(dim - 1, degree - head):
            out.append((head,) + tail)
    return sorted(out)


def restrict_to_span(p, basis):
    """Rewrite p as a polynomial in parameters of a subspace.

    Substitutes x = sum_i s_i b_i for the given basis b of the subspace
    (callers pass RREF bases); the result lives in ``len(basis)`` many
    parameter variables.
    """
    r = len(basis)
    images = []
    for i in range(p.dim):
        images.append(HomogPoly.linear_form([basis[j][i] for j in range(r)]) if r else HomogPoly.zero(0, 1))
    return p.substitute(images)


class Span(tuple):
    """A basis of a meet's span, one object per distinct span of a fan or
    complex; ``conditions`` keeps its vanishing rows per (dimension, degree)
    and reaches nothing but ints and exponent tuples."""

    def __init__(self, basis):
        self.conditions = {}


def _vanishing_rows(span, dim, k):
    """The conditions for a degree-k polynomial in ``dim`` variables to vanish
    on the span of the vectors ``span``: per parameter monomial, the
    (column, exponent, coefficient) of each monomial whose restriction has
    it, scaled to a primitive integer vector.  Only a :class:`Span` keeps them."""
    cache = getattr(span, "conditions", {})
    if (dim, k) not in cache:
        images = [restrict_to_span(HomogPoly.variable(dim, i), span) for i in range(dim)]
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
        cache[dim, k] = tuple(rows)
    return cache[dim, k]


def equal_on_span(p, q, subspace):
    """Do p and q agree as functions on the linear subspace spanned by the
    given vectors?"""
    if p.dim != q.dim:
        raise ValueError("ambient dimension mismatch")
    diff = p - q
    d = diff.coeffs
    if not d:
        return True
    return all(sum(v * d[e] for _, e, v in row if e in d) == 0
               for row in _vanishing_rows(subspace, p.dim, diff.degree))


def gluing_kernel(pairs, nblocks, dim, k):
    """Basis of the tuples of ``nblocks`` degree-k polynomials that agree on
    the span of each (a, b, span) in ``pairs``, ``span`` an RREF basis.

    Each vanishing row of a span gives one condition on the difference of
    blocks a and b.  The kernel is read off the RREF, so the basis does not
    depend on the order of the pairs.
    """
    monos = monomial_exponents(dim, k)
    m, rows = len(monos), []
    for a, b, span in pairs:
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
    from .qlinalg import primitive
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

    def degree(self):
        return self.numerator.degree - sum(self.denominator.values())


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
    dim = terms[0].numerator.dim
    lcm = {}
    for t in terms:
        for f, k in t.denominator.items():
            lcm[f] = max(lcm.get(f, 0), k)
    total = None
    for t in terms:
        num = t.numerator
        for f, k in lcm.items():
            extra = k - t.denominator.get(f, 0)
            for _ in range(extra):
                num = num * f
        total = num if total is None else total + num
    if total.is_zero():
        return HomogPoly.zero(dim, max((degree if degree is not None else 0), 0))
    for f, k in lcm.items():
        for _ in range(k):
            total, rem = divide_exact(total, f)
            if not rem.is_zero():
                raise NotPolynomial("rational-function sum is not a polynomial", remainder=rem)
    return total
