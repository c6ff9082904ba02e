"""Arithmetic cycles and the two limit descriptions of arithmetic Chow groups.

An arithmetic cycle pairs a horizontal invariant cycle with a Green current;
the direct-limit description trades it for a single piecewise polynomial
class on the cone over one model (theta), the extended group for a whole
pushforward-compatible tower of such classes (theta-prime).  Both are the
``"pp"`` flavor of ``limits``: a :class:`LimitClass` is compared and
multiplied on the common model that ``limits.on_common_model`` finds, and a
:class:`LimitTower` is a ``CurrentTower`` of that flavor, so its
compatibility check and the module action of limit classes on it
(``module_action``, which is ``limits.module_product_form``) are the ones
every other tower uses.  Eigenfunction divisors provide the
rational-equivalence relations and the vertical correction currents of the
Poincare-Lelong identity.
"""

from fractions import Fraction

from .cycles import (InvariantCycle, closure_class, cycle_from_pp,
                     horizontal_part, model_cycle_class)
from .errors import (CompatibilityViolation, InternalIdentityError,
                     NoCertificate, NotCycleSupported, WeightNotOrthogonal)
from .limits import (ClosedForm, CurrentTower, delta_current,
                     green_from_lifting, limit_equal_in, module_product_form,
                     on_common_model)
from .polyhedra import Cone, cone_over, quotient_projection, recession_fan
from .polyring import HomogPoly
from .ppfan import phi_cone, restrict_to_height_zero
from .qlinalg import primitive, vec
from .specialfiber import (class_equal, ddc_model, from_vertex_tuple,
                           iota_lower, iota_upper, vertical_decompose)


# ---------------------------------------------------------------------------
# eigenfunction divisors
# ---------------------------------------------------------------------------


def eigen_divisor(fan, sigma, weight):
    """div of the character of the given weight on the orbit closure V(sigma).

    ``weight`` must pair to zero with sigma (:class:`WeightNotOrthogonal`);
    the divisor is the sum over the codimension-one cofaces of sigma of the
    pairing of the weight with the primitive generator of the coface's image
    ray in the quotient lattice.
    """
    weight = vec(weight)
    sigma_rays = list(sigma.rays)
    if any(sum(weight[i] * r[i] for i in range(fan.rank)) != 0 for r in sigma_rays):
        raise WeightNotOrthogonal("weight does not vanish on the cone")
    project = quotient_projection(fan.rank, sigma_rays)
    terms = {}
    for c in fan.cones:
        if c.dim != sigma.dim + 1 or not c.contains_poly(sigma):
            continue
        u = next(r for r in c.rays if not sigma.contains_point(r))
        img = project(u)
        pimg = primitive(img)
        g = next(img[i] / pimg[i] for i in range(len(img)) if pimg[i] != 0)
        coeff = sum(weight[i] * u[i] for i in range(fan.rank)) / g
        if coeff != 0:
            terms[c.rays] = terms.get(c.rays, Fraction(0)) + coeff
    return InvariantCycle(fan.rank, sigma.dim + 1, terms)


def horizontal_cone_in_model(pc, sigma):
    return Cone(pc.rank + 1, [tuple(r) + (Fraction(0),) for r in sigma.rays])


def div_nu(chain, sigma, u):
    """The vertical correction current of the eigenfunction (sigma, u).

    Per model: the divisor of the character on the closure of V(sigma) minus
    the closure of its generic-fiber divisor, i.e. minus the vertical part of
    the model-level eigenfunction divisor, decomposed into a vertex tuple.
    """
    u = vec(u)
    weight = tuple(u) + (Fraction(0),)

    def rule(i):
        pc = chain.models[i]
        co = cone_over(pc)
        E = eigen_divisor(co.fan, horizontal_cone_in_model(pc, sigma), weight)
        vert = InvariantCycle(pc.rank + 1, E.codim,
                              {k: c for k, c in E.terms.items()
                               if any(r[pc.rank] != 0 for r in k)})
        cls = model_cycle_class(pc, vert)
        return vertical_decompose(pc, cls).scale(-1)

    t = CurrentTower(chain, "tilde", rule=rule)
    t.materialize()
    t.check_compat()
    return t


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
    """A horizontal cycle with a Green current and its certificate."""

    __slots__ = ("chain", "eta", "green", "certificate", "lifting")

    def __init__(self, chain, eta, green, certificate, lifting=None):
        self.chain = chain
        self.eta = eta
        self.green = green
        self.certificate = certificate
        self.lifting = lifting  # (chain index, PPFunction) when known


def theta(chain, start, cycle):
    """The arithmetic cycle of a model-level invariant cycle.

    The cycle's class is its own lifting; the horizontal restriction gives
    the generic-fiber cycle, and the Green tower comes from pullback minus
    closure.  The certificate is the slice of the lifting, verified to equal
    dd^c of the tower plus the delta current on every materialized model.
    """
    from .limits import ddc_current
    from .specialfiber import pullback_special
    pc = chain.model(start)
    F = model_cycle_class(pc, cycle)
    eta = horizontal_part(cycle, pc.rank)
    g = green_from_lifting(chain, start, F, eta)
    cert = ClosedForm(pc, iota_upper(pc, F))
    delta = delta_current(chain, eta)
    dd = ddc_current(g)
    for i in g.indices():
        lhs = dd.value(i) + delta.value(i)
        rhs = pullback_special(chain.map_between(i, start), cert.form)
        if lhs != rhs:
            raise InternalIdentityError("Green certificate failed on a chain model")
    return ArithCycle(chain, eta, g, cert, lifting=(start, F))


def theta_inverse(a):
    """Back to the direct limit: closure of the cycle plus the vertical lift
    of the Green tower, on the model where the certificate stabilizes."""
    if a.certificate is None:
        raise NoCertificate("arithmetic cycle carries no Green certificate")
    idx = next(i for i, m in enumerate(a.chain.models)
               if m.same_as(a.certificate.model))
    pc = a.chain.models[idx]
    F = closure_class(pc, a.eta) + iota_lower(a.green.value(idx))
    return LimitClass(pc, F)


def arith_product(a, b):
    """Product via the limit classes, mapped back through theta.

    The product representative must again be supported on cycles
    (:class:`NotCycleSupported` otherwise), matching the generator-level
    definition of the arithmetic group.
    """
    chain = a.chain
    la, lb = theta_inverse(a), theta_inverse(b)
    prod = limit_mul(la, lb)
    idx = next((i for i, m in enumerate(chain.models) if m.same_as(prod.model)), None)
    if idx is None:
        raise NotCycleSupported("product lives outside the working chain")
    cyc = cycle_from_pp(cone_over(chain.models[idx]).fan, prod.pp, prod.degree)
    if cyc is None:
        raise NotCycleSupported("product class is not supported on cycles")
    return theta(chain, idx, cyc)


def rational_equivalence_class(chain, start, sigma_t, weight_t):
    """The limit class of a rational-equivalence generator.

    For an eigenfunction of the given weight on V(sigma_t) this is the
    character action on the closure minus the model-level divisor; the class
    is zero in the limit, which is the well-definedness of theta.
    """
    pc = chain.models[start]
    co = cone_over(pc)
    weight_t = vec(weight_t)
    E = eigen_divisor(co.fan, sigma_t, weight_t)
    chi_w = phi_cone(co.fan, sigma_t) * HomogPoly.linear_form(weight_t)
    return LimitClass(pc, chi_w - model_cycle_class(pc, E))


# ---------------------------------------------------------------------------
# the inverse limit: theta-prime
# ---------------------------------------------------------------------------


class LimitTower(CurrentTower):
    """A pushforward-compatible family of PP classes over the chain: a
    ``"pp"`` tower, checked when it is built."""

    __slots__ = ()

    def __init__(self, chain, values, start=0):
        super().__init__(chain, "pp", values=values, start=start)
        self.check_compat()

    # Defined on the class itself, beside __init__, so that a tracer that
    # wraps this class's own methods (perfbench/layertrace.py) finds both.
    def check_compat(self):
        return super().check_compat()


class ExtendedArithCycle:
    """A horizontal cycle with an arbitrary (not necessarily Green) current."""

    __slots__ = ("chain", "eta", "green")

    def __init__(self, chain, eta, green):
        self.chain = chain
        self.eta = eta
        self.green = green


def theta_prime(T):
    """From a compatible tower to (cycle, current).

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
    vals = {}
    for i in T.indices():
        pc = chain.models[i]
        z = T.value(i) - closure_class(pc, eta)
        vals[i] = vertical_decompose(pc, z)
    g = CurrentTower(chain, "tilde", values=vals, start=T.start)
    g.check_compat()
    return ExtendedArithCycle(chain, eta, g)


def theta_prime_inverse(x):
    """From (cycle, current) back to the tower: closure plus vertical lift."""
    chain = x.chain
    vals = {}
    for i in x.green.indices():
        pc = chain.models[i]
        vals[i] = closure_class(pc, x.eta) + iota_lower(x.green.value(i))
    return LimitTower(chain, vals, start=x.green.start)


def extended_equal(x, y):
    """Componentwise equality: same cycle, same current classes per model."""
    if x.eta != y.eta:
        return False
    for i in x.green.indices():
        if not class_equal(x.green.value(i), y.green.value(i)):
            return False
    return True


# the limit-class module structure on towers
module_action = module_product_form
