"""Invariant cycles as formal rational combinations of orbit-closure cones.

A horizontal cycle lives on the generic fiber and is a combination of cones
of the recession fan; a model cycle is a combination of cones of c(Pi) and
may mix horizontal (height-zero) and vertical cones.  Under the Poincare
duality dictionary the cone sigma stands for the orbit closure V(sigma) and
its class is the generator phi_sigma.
"""

from fractions import Fraction

from .polyhedra import Cone, cone_over
from .polyring import _memo
from .ppfan import PPFunction, _preimage, _system, phi_cone, zero_pp
from .qlinalg import primitive, rat, vec


def _cone_key(rays):
    return tuple(sorted(primitive(vec(r)) for r in rays))


class InvariantCycle:
    """A formal combination of codimension-k invariant subvarieties.

    ``rank`` is the ambient lattice rank of the fan carrying the cones; for
    horizontal cycles that is n, for model-level cycles n + 1.
    """

    __slots__ = ("rank", "codim", "terms")

    def __init__(self, rank, codim, terms):
        self.rank = rank
        self.codim = codim
        clean = {}
        for rays, c in terms.items():
            key = _cone_key(rays) if rays else ()
            c = rat(c)
            if len(key) != codim:
                raise ValueError(f"a term has {len(key)} rays, the codimension is {codim}")
            for r in key:
                if len(r) != rank:
                    raise ValueError(f"a ray has {len(r)} coordinates, the rank is {rank}")
            if c != 0:
                clean[key] = clean.get(key, Fraction(0)) + c
        self.terms = {k: c for k, c in clean.items() if c != 0}

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return InvariantCycle(self.rank, self.codim, out)

    def __neg__(self):
        return InvariantCycle(self.rank, self.codim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = rat(c)
        return InvariantCycle(self.rank, self.codim, {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, InvariantCycle) and self.rank == other.rank
                and self.terms == other.terms)

    def __repr__(self):
        return f"InvariantCycle(codim={self.codim}, {self.terms})"


def horizontal_lift_key(key):
    """Embed a cone of the recession fan at height zero in c(Pi)."""
    return tuple(tuple(r) + (Fraction(0),) for r in key)


@_memo
def _generator(fan, key):
    """phi_sigma of the cone on the rays ``key`` as (degree, pieces), which
    hold no reference to the fan that keeps them; a key that is no cone of
    the fan raises on every call.

    A cycle key sorts primitive rays as :class:`Cone` does, so the key of a
    cone of the fan is that member's own key, and the member is read off the
    fan; only a key that no member has builds its cone from the rays.
    """
    i = fan.index(key)
    f = phi_cone(fan, Cone(fan.rank, list(key)) if i is None else fan.cones[i])
    return f.degree, f.pieces


def _class_on_model(pc, cycle, keys):
    """The sum over the cycle's terms of c * phi_sigma, sigma read off ``keys``."""
    fan = cone_over(pc).fan
    return zero_pp(fan, cycle.codim).combine(
        [PPFunction._of(fan, *_generator(fan, k)) for k in keys],
        cycle.terms.values())


def closure_class(pc, cycle):
    """The class of the Zariski closure of a horizontal cycle on a model.

    Each horizontal cone is read at height zero inside c(Pi) and contributes
    its generator there.
    """
    return _class_on_model(pc, cycle, [horizontal_lift_key(key) for key in cycle.terms])


def model_cycle_class(pc, cycle):
    """The PP class of a model-level cycle on c(Pi)."""
    return _class_on_model(pc, cycle, cycle.terms)


def horizontal_part(cycle, n):
    """The height-zero terms of a model-level cycle, read in the recession fan."""
    terms = {}
    for key, c in cycle.terms.items():
        if all(r[n] == 0 for r in key):
            terms[tuple(r[:n] for r in key)] = c
    return InvariantCycle(n, cycle.codim, terms)


def cycle_from_pp(fan, f, codim):
    """Express a PP class as a combination of the codim-k cone generators.

    Returns the InvariantCycle or None when the class is not supported on
    cycles of that codimension.
    """
    cones, coords = _preimage(_cone_system(fan, codim), f.coords())
    if coords is None:
        return None
    return InvariantCycle(fan.rank, codim,
                          {c.rays: x for c, x in zip(cones, coords) if x != 0})


@_memo
def _cone_system(fan, codim):
    """The generators phi_sigma of the codim-dimensional cones of the fan,
    as the system :func:`cycle_from_pp` solves on, its basis the cones."""
    return _system([c for c in fan.cones if c.dim == codim],
                   lambda c: phi_cone(fan, c).coords())
