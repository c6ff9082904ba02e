"""Arithmetic cycles and the two limit descriptions of arithmetic Chow groups.

An arithmetic cycle pairs a horizontal invariant cycle with a Green current;
the direct-limit description trades it for a single piecewise polynomial
class on the cone over one model (theta), the extended group for a whole
pushforward-compatible tower of such classes (theta-prime, whose
:class:`ArithCycle` has no certificate).  On each model both take F to the
vertical part of F minus the closure of the cycle, and back by closure plus
vertical lift, one routine each way.  Both are the
``"pp"`` flavor of ``limits``: a :class:`LimitClass` is compared and
multiplied on the common model that ``limits.on_common_model`` finds, and a
:class:`LimitTower` is a ``CurrentTower`` of that flavor, so its
compatibility check and the module action of limit classes on it
(``limits.module_product_form``) are the ones
every other tower uses.  Eigenfunction divisors provide the
rational-equivalence relations and the vertical correction currents of the
Poincare-Lelong identity.
"""

from fractions import Fraction
from math import gcd

from .cycles import (InvariantCycle, closure_class, cycle_from_pp,
                     horizontal_lift_key, horizontal_part, model_cycle_class)
from .errors import (CompatibilityViolation, InputError, InternalIdentityError, NoCertificate,
                     NotACone, NotARecessionCone, NotCycleSupported, WeightNotOrthogonal)
from .limits import (ClosedForm, CurrentTower, _pulled_back, _tower,
                     _vertical_current, ddc_plus_delta, green_from_lifting,
                     limit_equal_in, on_common_model)
from .polyhedra import cone_over, quotient_projection, recession_fan
from .polyring import HomogPoly
from .ppfan import phi_cone, restrict_to_height_zero
from .qlinalg import vec
from .specialfiber import (class_equal, ddc_model, from_vertex_tuple,
                           iota_lower, iota_upper, vertical_decompose)


# ---------------------------------------------------------------------------
# eigenfunction divisors
# ---------------------------------------------------------------------------


def eigen_divisor(fan, sigma, weight):
    """div of the character of the given weight on the orbit closure V(sigma).

    ``weight`` must pair to zero with sigma (:class:`WeightNotOrthogonal`),
    and sigma must be a cone of the fan (:class:`NotACone`); the divisor is
    the sum over the codimension-one cofaces of sigma of the pairing of the
    weight with the primitive generator of the coface's image ray in the
    quotient lattice.

    The cofaces are the cones c of dimension sigma.dim + 1 whose rays
    include sigma's, and u is the first ray of c that is not one of sigma's:
    sigma inside c is a face of c, whose rays are the rays of c in sigma
    (see :class:`~ppchow.polyhedra.Fan`).  The image of u spans the image
    ray.  In the coordinates of :func:`~ppchow.polyhedra.quotient_projection`
    it is an integer vector, g times the ray's primitive generator for g the
    gcd of its coordinates, so the pairing is <weight, u> / g.
    """
    weight = vec(weight)
    if any(sum(weight[i] * r[i] for i in range(fan.rank)) != 0 for r in sigma.rays):
        raise WeightNotOrthogonal("weight does not vanish on the cone")
    if fan.index(sigma.key()) is None:
        raise NotACone(f"{sigma!r} is not a cone of the fan")
    project = quotient_projection(fan.rank, list(sigma.rays))
    terms = {}
    for c in fan.cones:
        if c.dim != sigma.dim + 1 or not all(r in c.rays for r in sigma.rays):
            continue
        u = next(r for r in c.rays if r not in sigma.rays)
        coeff = sum(weight[i] * u[i] for i in range(fan.rank)) / gcd(*map(int, project(u)))
        if coeff != 0:
            terms[c.rays] = terms.get(c.rays, Fraction(0)) + coeff
    return InvariantCycle(fan.rank, sigma.dim + 1, terms)


def horizontal_cone_in_model(pc, sigma):
    """The cone of c(Pi) at height zero above the recession cone sigma, the
    fan's own member, or :class:`NotARecessionCone`.  A recession cone's
    rays lifted to height zero are, in order, the key of that member."""
    fan = cone_over(pc).fan
    i = fan.index(horizontal_lift_key(sigma.rays))
    if i is None:
        raise NotARecessionCone(f"{sigma!r} is not a cone of rec(Pi)")
    return fan.cones[i]


def div_nu(chain, sigma, u):
    """The vertical correction current of the eigenfunction (sigma, u).

    Per model: the divisor of the character on the closure of V(sigma) minus
    the closure of its generic-fiber divisor, i.e. minus the vertical part of
    the model-level eigenfunction divisor, decomposed into a vertex tuple.
    """
    u = vec(u)
    weight = tuple(u) + (Fraction(0),)

    def value(i):
        pc = chain.models[i]
        E = eigen_divisor(cone_over(pc).fan, horizontal_cone_in_model(pc, sigma), weight)
        vert = InvariantCycle(pc.rank + 1, E.codim,
                              {k: c for k, c in E.terms.items()
                               if any(r[pc.rank] != 0 for r in k)})
        cls = model_cycle_class(pc, vert)
        return vertical_decompose(pc, cls).scale(-1)

    return _tower(chain, value)


def poincare_lelong_check(chain, sigma, u):
    """Both sides of the Poincare-Lelong identity per model, compared exactly.

    dd^c(-div_nu(f)) against the delta current of chi[W] - div(f), where the
    character action is multiplication by its global linear form.
    """
    u = vec(u)
    rec = recession_fan(chain.models[0])
    horiz_div = eigen_divisor(rec, sigma, u)
    nu = div_nu(chain, sigma, u)
    results = []
    for i in nu.indices():
        pc = chain.models[i]
        lhs = from_vertex_tuple(ddc_model(nu.value(i).scale(-1)))
        u_form = HomogPoly.linear_form(tuple(u) + (Fraction(0),))
        chi_w = phi_cone(cone_over(pc).fan, horizontal_cone_in_model(pc, sigma)) * u_form
        rhs_class = chi_w - closure_class(pc, horiz_div)
        rhs = iota_upper(pc, rhs_class)
        results.append({"model": i, "equal": lhs == rhs})
    return {"all_equal": all(r["equal"] for r in results), "models": results}


# ---------------------------------------------------------------------------
# the direct limit: theta
# ---------------------------------------------------------------------------


class LimitClass:
    """A class in the direct limit: a PP function on the cone over one model,
    compared after pullback to a common refinement."""

    __slots__ = ("model", "pp")

    def __init__(self, model, pp):
        self.model = model
        self.pp = pp

    @property
    def degree(self):
        return self.pp.degree

    def __repr__(self):
        return f"LimitClass(deg={self.pp.degree} on {self.model!r})"


def limit_equal(a, b):
    return limit_equal_in("pp", a, b)


def limit_mul(a, b):
    pc, x, y = on_common_model("pp", a, b)
    return LimitClass(pc, x * y)


class ArithCycle:
    """A horizontal cycle with a current and, from theta, the closed form
    certifying it Green; theta-prime's cycles carry None, which
    ``theta_inverse`` refuses (:class:`NoCertificate`)."""

    __slots__ = ("chain", "eta", "green", "certificate")

    def __init__(self, chain, eta, green, certificate=None):
        self.chain = chain
        self.eta = eta
        self.green = green
        self.certificate = certificate


def theta(chain, start, cycle):
    """The arithmetic cycle of a model-level invariant cycle.

    The cycle's class is its own lifting; the horizontal restriction gives
    the generic-fiber cycle, and the Green tower comes from pullback minus
    closure.  The certificate is the slice of the lifting, verified to equal
    dd^c of the tower plus the delta current on every model of the tower.
    """
    pc = chain.model(start)
    F = model_cycle_class(pc, cycle)
    eta = horizontal_part(cycle, pc.rank)
    g = green_from_lifting(chain, start, F, eta)
    cert = ClosedForm(pc, iota_upper(pc, F))
    if not _pulled_back(ddc_plus_delta(g, eta), start, cert.form):
        raise InternalIdentityError("Green certificate failed on a chain model")
    return ArithCycle(chain, eta, g, cert)


def _model_class(a, i):
    """The PP class on the cone over chain model i of an arithmetic cycle:
    the closure of its cycle plus the vertical lift of its current there."""
    return closure_class(a.chain.models[i], a.eta) + iota_lower(a.green.value(i))


def theta_inverse(a):
    """Back to the direct limit: closure of the cycle plus the vertical lift
    of the Green tower, on the model where the certificate stabilizes."""
    if a.certificate is None:
        raise NoCertificate("arithmetic cycle carries no Green certificate")
    idx = a.chain.position(a.certificate.model)
    if idx is None:
        raise NoCertificate("the Green certificate's model is not on the cycle's chain")
    return LimitClass(a.chain.models[idx], _model_class(a, idx))


def arith_product(a, b):
    """Product via the limit classes, mapped back through theta.

    The product representative must again be supported on cycles
    (:class:`NotCycleSupported` otherwise), matching the generator-level
    definition of the arithmetic group.
    """
    chain = a.chain
    la, lb = theta_inverse(a), theta_inverse(b)
    prod = limit_mul(la, lb)
    idx = chain.position(prod.model)
    if idx is None:
        raise NotCycleSupported("product lives outside the working chain")
    cyc = cycle_from_pp(cone_over(chain.models[idx]).fan, prod.pp, prod.degree)
    if cyc is None:
        raise NotCycleSupported("product class is not supported on cycles")
    return theta(chain, idx, cyc)


# ---------------------------------------------------------------------------
# the inverse limit: theta-prime
# ---------------------------------------------------------------------------


class LimitTower(CurrentTower):
    """A pushforward-compatible family of PP classes over the chain: a
    ``"pp"`` tower, checked when it is built, as every tower is."""

    __slots__ = ()

    def __init__(self, chain, values, start=0):
        super().__init__(chain, values, start)
        if self.flavor != "pp":
            raise InputError("a limit tower's values must be PPFunction, not the values "
                             f"of a {self.flavor} tower")

    # Defined on the class itself, beside __init__, so that a tracer that
    # wraps this class's own methods (perfbench/layertrace.py) finds both.
    def check_compat(self):
        return super().check_compat()


def theta_prime(T):
    """From a compatible tower to (cycle, current), an :class:`ArithCycle`
    without a certificate.

    The horizontal restriction must be supported on cycles of the tower's
    degree; every model then contributes the vertical difference between its
    value and the closure of that cycle.
    """
    chain = T.chain
    k = T.value(T.start).degree
    pc0 = chain.models[T.start]
    rec = recession_fan(pc0)
    restr = restrict_to_height_zero(pc0, T.value(T.start))
    eta = cycle_from_pp(rec, restr, k)
    if eta is None:
        raise NotCycleSupported("horizontal restriction is not supported on cycles")
    for i in T.indices():
        pc = chain.models[i]
        if restrict_to_height_zero(pc, T.value(i)) != restr:
            raise CompatibilityViolation("horizontal restrictions differ along the tower",
                                         witness=i)
    return ArithCycle(chain, eta, _vertical_current(chain, T.start, eta, T.value))


def theta_prime_inverse(x):
    """From (cycle, current) back to the tower: closure plus vertical lift."""
    return LimitTower(x.chain, {i: _model_class(x, i) for i in x.green.indices()},
                      start=x.green.start)


def extended_equal(x, y):
    """Componentwise equality: same cycle, same current classes per model."""
    if x.eta != y.eta:
        return False
    for i in x.green.indices():
        if not class_equal(x.green.value(i), y.green.value(i)):
            return False
    return True
