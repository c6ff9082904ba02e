"""Limits of special-fiber Chow groups: forms, currents, delta and Green.

Every group here is a limit over the directed set of models, presented on a
finite chain of them; only the transfer maps differ.  A *flavor* names
them, and ``_FLAVORS`` holds one row per flavor:

* ``"closed"``: affine piecewise polynomials on the special fiber.  The
  direct limit is the closed forms (:class:`ClosedForm`), pulled back by
  ``pullback_special``; the inverse limit is the closed currents, pushed
  forward by ``beta``; equality is cell-wise.
* ``"tilde"``: vertex tuples modulo the image of gamma.  The direct limit is
  the forms modulo dd^c (``specialfiber.FormModDdbar``, the homology class
  of one model, which this module re-exports), pulled back by ``zeta``; the
  inverse limit is the currents modulo boundaries, pushed forward by
  ``alpha``; equality is ``class_equal``.
* ``"pp"``: piecewise polynomials on the cone over a model.  The direct
  limit is the limit classes of ``arithchow`` (``LimitClass``), pulled back
  by ``pullback``; the inverse limit is the towers of the extended
  arithmetic Chow group (``LimitTower``), pushed forward by ``pushforward``;
  equality is ``==``.

Two direct-limit classes are compared or multiplied after
:func:`on_common_model` pulls both back to a model refining their own.  An
inverse-limit element is a :class:`CurrentTower` of one flavor, which the
carrier of its values fixes (``AffinePP``, ``VertexTuple`` or
``PPFunction``): its compatibility check, stabilization test and
closed-form action read the maps from the same row.

Inverse limits are truncations: an explicit chain of models with a value on
each from the tower's first position on.  The tower's constructor checks
that it has exactly those values, each on its model, and that they are
compatible, so every tower is checked once, when it is made.  The check
reads the pushforward on coordinates: a value is solved on its model's
basis and its coefficients combine the columns of the pushforward, the
images of the basis elements under ``beta``'s lift and push, ``alpha`` or
``pushforward``, each built the first time a value needs it and kept on the
model map.  Those per-call maps stay the public transfers.  One routine
builds every derived tower by computing its values in chain order.
Stabilization detection is always chain-relative: a tower counts as
stabilized at the earliest model whose transfer system reproduces every
later value, with at least one later value to confirm.
"""

import operator
from collections import namedtuple
from math import lcm

from .errors import (CompatibilityViolation, InputError, InternalIdentityError,
                     NotALifting, NotARefinement, NotStabilized)
from .cycles import closure_class
from .polyhedra import common_refinement, cone_over, recession_fan, refines
from .polyring import _memo
from .ppfan import (PPFunction, _preimage, _system, equivariant_degree, graded_basis,
                    pullback, pushforward, restrict_to_height_zero)
from .specialfiber import (AffinePP, FormModDdbar, VertexTuple, _gamma_span,
                           _slice_system, alpha, cap_fundamental, class_equal,
                           ddc_model, dim_affine_pp, from_vertex_tuple, iota_upper,
                           pullback_special, to_vertex_tuple, vertex_layer_basis,
                           vertical_decompose, zero_vertex_tuple, zeta)


class ModelChain:
    """A finite ascending chain of models with the witnessing refinements."""

    def __init__(self, models):
        self.models = list(models)
        self.maps = []
        for coarse, fine in zip(self.models, self.models[1:]):
            m = refines(fine, coarse)
            if m is None:
                raise NotARefinement("consecutive chain models do not refine")
            self.maps.append(m)

    def __len__(self):
        return len(self.models)

    def model(self, i):
        """The model at chain position i, which must lie in [0, len)."""
        if not 0 <= i < len(self.models):
            raise InputError(f"chain position {i} is outside [0, {len(self.models)})")
        return self.models[i]

    def truncate(self, depth):
        if depth < 1:
            raise InputError(f"depth must be at least 1, got {depth}")
        return ModelChain(self.models[:depth])

    def position(self, model):
        """The chain position of a model equal to ``model``, or None."""
        return next((i for i, m in enumerate(self.models) if m.same_as(model)), None)

    def map_between(self, fine_idx, coarse_idx):
        """The ModelMap models[fine_idx] -> models[coarse_idx]; refinement is
        transitive, so it exists, and ``refines`` keeps it on the finer model."""
        return refines(self.model(fine_idx), self.model(coarse_idx))


def common_model(pc1, pc2):
    """A model refining both inputs, with the two refinement maps."""
    m12 = refines(pc1, pc2)
    if m12 is not None:
        return pc1, refines(pc1, pc1), m12
    m21 = refines(pc2, pc1)
    if m21 is not None:
        return pc2, m21, refines(pc2, pc2)
    cr = common_refinement(pc1, pc2)
    return cr, refines(cr, pc1), refines(cr, pc2)


# What a flavor decides: the domain of a model's values; the name of the map
# that pushes a tower value to the coarser model; the coordinate system of a
# model's values in a degree (a ppfan ``_system``, whose basis the check
# solves values on), the image of one of its basis elements under the
# pushforward along a model map, and whether coordinates of a degree on a
# model are those of zero (for "tilde", of a gamma image); the map that pulls
# a value to the finer model, equality of values, the representative of a
# direct-limit class, the value a direct-limit class acts by after pullback
# along a model map, and the vertex tuple whose degree is a value's (None: no
# degree is defined).  The lambdas look the maps up when
# called, so a rebound module name is seen through the table too.
_Flavor = namedtuple("_Flavor", "domain pushforward system column vanishes pull equal "
                                "rep acting vertex_tuple")

_FLAVORS = {
    "closed": _Flavor(domain=lambda pc: pc,
                      pushforward="pushforward",
                      system=lambda pc, k: _slice_system(pc, k),
                      column=lambda m, b: iota_upper(m.target, pushforward(m.fan_map, b)),
                      vanishes=lambda pc, k, v: not any(v),
                      pull=lambda m, a: pullback_special(m, a),
                      equal=operator.eq,
                      rep=operator.attrgetter("form"),
                      acting=lambda m, c: pullback_special(m, c.form),
                      vertex_tuple=lambda a: cap_fundamental(a)),
    "tilde": _Flavor(domain=lambda pc: pc,
                     pushforward="vertex pushforward",
                     system=lambda pc, k: _vertex_system(pc, k),
                     column=lambda m, b: alpha(m, b),
                     vanishes=lambda pc, k, v: not any(v) or _gamma_span(pc, k).contains(v),
                     pull=lambda m, t: zeta(m, t),
                     equal=lambda s, t: class_equal(s, t),
                     rep=operator.attrgetter("tuple"),
                     acting=lambda m, c: to_vertex_tuple(pullback_special(m, c.form)),
                     vertex_tuple=lambda t: t),
    "pp": _Flavor(domain=lambda pc: cone_over(pc).fan,
                  pushforward="model pushforward",
                  system=lambda pc, k: _pp_system(pc, k),
                  column=lambda m, b: pushforward(m.fan_map, b),
                  vanishes=lambda pc, k, v: not any(v),
                  pull=lambda m, f: pullback(m.fan_map, f),
                  equal=operator.eq,
                  rep=operator.attrgetter("pp"),
                  acting=lambda m, c: pullback(m.fan_map, c.pp),
                  vertex_tuple=None),
}

# The flavor of a tower whose values are of the given carrier.
_CARRIERS = {AffinePP: "closed", VertexTuple: "tilde", PPFunction: "pp"}


def on_common_model(flavor, a, b):
    """Two direct-limit classes of one flavor on a common refinement of their
    models: that model and the two representatives pulled back to it."""
    ops = _FLAVORS[flavor]
    pc, ma, mb = common_model(a.model, b.model)
    return pc, ops.pull(ma, ops.rep(a)), ops.pull(mb, ops.rep(b))


def limit_equal_in(flavor, a, b):
    """Equality in the direct limit: the flavor's equality on a common model."""
    _, x, y = on_common_model(flavor, a, b)
    return _FLAVORS[flavor].equal(x, y)


class ClosedForm:
    """An element of the closed-form direct limit, presented on one model."""

    __slots__ = ("model", "form")

    def __init__(self, model, form):
        if not form.complex.same_as(model):
            raise ValueError("form does not live on the stated model")
        self.model = model
        self.form = form

    @property
    def degree(self):
        return self.form.degree

    def __repr__(self):
        return f"ClosedForm(deg={self.form.degree} on {self.model!r})"


def form_equal(a, b):
    return limit_equal_in("closed", a, b)


def form_mod_equal(a, b):
    return limit_equal_in("tilde", a, b)


def ddc_form(c):
    """dd^c of a form class: -gamma.rho of the representative, certified to
    land in ker(rho) on the same model and wrapped as a closed form."""
    out = ddc_model(c.tuple)
    return ClosedForm(c.model, from_vertex_tuple(out))


class CurrentTower:
    """A truncated inverse-limit element over a model chain.

    The values come with the tower, one per chain position from ``start``
    on, all of one carrier, which fixes the tower's ``flavor``: the row of
    ``_FLAVORS`` that gives the values' pushforward and equality.  Affine-PP
    values make a "closed" tower, vertex tuples (modulo gamma images) a
    "tilde" one and PP classes on the cones over the models a "pp" one.  The
    constructor refuses values at other positions, of no one carrier or off
    their chain models (:class:`InputError`) and checks the values
    compatible (:class:`CompatibilityViolation`), on the coordinates of
    each value on its model's basis (:meth:`check_compat`).
    """

    __slots__ = ("chain", "flavor", "start", "_values")

    def __init__(self, chain, values, start=0):
        if not 0 <= start < len(chain):
            raise InputError(f"tower start {start} is outside [0, {len(chain)})")
        self.chain = chain
        self.start = start
        self._values = dict(values)
        if sorted(self._values) != list(self.indices()):
            raise InputError(f"tower values must sit at chain positions {start}.."
                             f"{len(chain) - 1}, got {sorted(self._values)}")
        kinds = {type(v) for v in self._values.values()}
        if len(kinds) != 1 or not kinds <= _CARRIERS.keys():
            raise InputError("tower values must be all AffinePP, all VertexTuple or all "
                             f"PPFunction, got {sorted(k.__name__ for k in kinds)}")
        self.flavor = _CARRIERS[kinds.pop()]
        domain = _FLAVORS[self.flavor].domain
        if not all(v.domain.same_as(domain(chain.models[i])) for i, v in self._values.items()):
            raise InputError("tower values must live on their chain models")
        self.check_compat()

    def indices(self):
        return range(self.start, len(self.chain))

    def value(self, i):
        if i not in self._values:
            raise IndexError(f"no value at chain position {i}: the tower has "
                             f"positions {self.start}..{len(self.chain) - 1}")
        return self._values[i]

    def materialize(self):
        """The tower, once every value from ``start`` on is read."""
        for i in self.indices():
            self.value(i)
        return self

    def check_compat(self):
        """Exact compatibility on every consecutive pair of values, read on
        coordinates (:func:`_pushes_to`).

        The flavor's pushforward P from model i+1 to model i is linear.  Its
        per-call map solves value i+1 on a basis b of its model's coordinate
        system, value = sum c_j b_j (for "closed" the basis is the graded
        basis on the cone over the model and the value is the slice of that
        sum, as ``beta`` lifts it), and pushes the sum.  So the pushed value
        is sum c_j P(b_j), and its coordinates are that combination of the
        columns, the coordinates of the P(b_j) that the per-call maps give
        (:func:`_column`).  A zero c_j adds nothing, so only the columns of
        nonzero coefficients are read, and each is built once per map.  Two
        values are equal when their coordinates are, and two vertex tuples
        are equal classes when the coordinates of their difference lie in
        the span of the gamma image; so agreement on coordinates is
        agreement of values, and each verdict is the per-call route's.  The
        zero of a degree is the zero of every degree, so a pushed value and
        a value of two degrees agree when both are zero, as classes for
        "tilde".
        """
        ops = _FLAVORS[self.flavor]
        for i in range(self.start, len(self.chain) - 1):
            if not _pushes_to(self.flavor, self.chain.maps[i], self.value(i + 1), self.value(i)):
                raise CompatibilityViolation(
                    f"{ops.pushforward} from model {i + 1} to {i} mismatches",
                    witness=(i, i + 1))
        return True


def _pushes_to(flavor, m, fine, coarse):
    """Whether the flavor's pushforward along the model map ``m`` takes the
    value ``fine`` to ``coarse``, on integer coordinates: value i+1 solved on
    its model's basis, the columns of its nonzero coefficients combined over
    one denominator, and the result compared with the coordinates of value
    i scaled by theirs."""
    ops = _FLAVORS[flavor]
    k = fine.degree
    _, coeffs = _preimage(ops.system(m.source, k), fine.coords())
    if coeffs is None:
        raise InternalIdentityError(f"a {flavor} value has no coordinates on its model's basis")
    terms = [(c / d, col) for j, c in enumerate(coeffs) if c
             for d, col in (_column(m, flavor, k, j),)]
    den = lcm(*[q.denominator for q, _ in terms])
    weights = [q.numerator * (den // q.denominator) for q, _ in terms]
    pushed = [sum(map(operator.mul, weights, row)) for row in zip(*[col for _, col in terms])]
    x = coarse.coords()
    scale = lcm(*[v.denominator for v in x])
    x = [v.numerator * (scale // v.denominator) for v in x]
    if coarse.degree != k:
        return ops.vanishes(m.target, k, pushed) and ops.vanishes(m.target, coarse.degree, x)
    return ops.vanishes(m.target, k, [p * scale - v * den
                                      for p, v in zip(pushed or [0] * len(x), x)])


@_memo
def _column(m, flavor, k, j):
    """The coordinates of the flavor's per-call pushforward along the model
    map ``m`` of basis element j of its source's degree-k coordinate system:
    (d, the coordinates times d as ints), d the lcm of their denominators,
    with no reference to the map that keeps them."""
    ops = _FLAVORS[flavor]
    image = ops.column(m, ops.system(m.source, k)[0][j]).coords()
    d = lcm(*[x.denominator for x in image])
    return d, tuple(x.numerator * (d // x.denominator) for x in image)


@_memo
def _vertex_system(pc, k):
    """The coordinates of degree-k vertex tuples on the vertex layer basis."""
    return _system(vertex_layer_basis(pc, k), VertexTuple.coords)


@_memo
def _pp_system(pc, k):
    """The coordinates of degree-k PP classes on the cone over the model on
    its graded basis."""
    return _system(graded_basis(cone_over(pc).fan, k), PPFunction.coords)


def _tower(chain, value, start=0):
    """The tower whose value at each chain position i from ``start`` on is
    ``value(i)``, computed in chain order."""
    return CurrentTower(chain, {i: value(i) for i in range(start, len(chain))}, start)


def ddc_current(tower):
    """Model-wise dd^c of a tilde tower; output compatibility re-verified."""
    if tower.flavor != "tilde":
        raise ValueError("dd^c acts on tilde towers")
    return _tower(tower.chain, lambda i: from_vertex_tuple(ddc_model(tower.value(i))),
                  tower.start)


def _pulled_back(tower, s, form):
    """Whether the tower's value at chain position s is ``form`` and every
    later value is the pullback of ``form`` to its model."""
    chain = tower.chain
    ops = _FLAVORS[tower.flavor]
    return ops.equal(tower.value(s), form) and all(
        ops.equal(ops.pull(chain.map_between(j, s), form), tower.value(j))
        for j in range(s + 1, len(chain)))


def tower_stabilization(tower):
    """Earliest chain position whose transfer system reproduces all later
    values, or None.  Requires at least one later model as confirmation."""
    return next((s for s in range(tower.start, len(tower.chain) - 1)
                 if _pulled_back(tower, s, tower.value(s))), None)


def delta_current(chain, cycle, start=0):
    """The closed current of a horizontal cycle from chain position ``start``
    on: per model, the slice of the class of its Zariski closure."""
    def value(i):
        pc = chain.models[i]
        return iota_upper(pc, closure_class(pc, cycle))
    return _tower(chain, value, start)


def _vertical_current(chain, start, cycle, classes):
    """The tilde tower from ``start`` on whose value on each model i is the
    vertical part of ``classes(i)`` minus the closure of the cycle,
    decomposed through the vertical lift."""
    def value(i):
        pc = chain.models[i]
        return vertical_decompose(pc, classes(i) - closure_class(pc, cycle))
    return _tower(chain, value, start)


def green_from_lifting(chain, start, lifting, cycle):
    """The Green current of a cycle from a lifting on chain model ``start``.

    The lifting is a PP class on the cone over that model restricting to the
    cycle's class on the recession fan (checked; :class:`NotALifting`
    otherwise).  On each finer chain model the value is the vertical part of
    pullback-minus-closure, decomposed through the vertical lift.
    """
    pc0 = chain.model(start)
    # the fan is unused: the call refuses an incomplete model (IncompleteInput)
    # before closure_class raises NotARay on a ray outside its support
    recession_fan(pc0)
    eta_class = closure_class(pc0, cycle)
    restr_lift = restrict_to_height_zero(pc0, lifting)
    restr_eta = restrict_to_height_zero(pc0, eta_class)
    if restr_lift != restr_eta:
        raise NotALifting("lifting does not restrict to the cycle's class")
    return _vertical_current(chain, start, cycle,
                             lambda i: pullback(chain.map_between(i, start).fan_map, lifting))


def ddc_plus_delta(tower, cycle):
    """The closed tower dd^c(tower) + delta(cycle) from the tower's start on:
    a pullback system exactly when the tilde tower is a Green current of the
    cycle."""
    delta = delta_current(tower.chain, cycle, tower.start)
    return _tower(tower.chain,
                  lambda i: from_vertex_tuple(ddc_model(tower.value(i))) + delta.value(i),
                  tower.start)


def is_green(tower, cycle):
    """dd^c(tower) + delta(cycle) along the chain; Some(stabilized closed
    form) when that sum is a pullback system, None otherwise."""
    total = ddc_plus_delta(tower, cycle)
    s = tower_stabilization(total)
    return None if s is None else ClosedForm(tower.chain.models[s], total.value(s))


def regularity_check(tower):
    """Constructive regularity: if dd^c of the tower stabilizes on the chain,
    find the model where the tower itself is determined.

    Returns a FormModDdbar on the stabilizing model; raises
    :class:`NotStabilized` when the truncation depth cannot confirm one
    (insufficient data is reported, never mis-certified).
    """
    dd = ddc_current(tower)
    if tower_stabilization(dd) is None:
        raise NotStabilized("dd^c of the tower does not stabilize at this depth")
    s = tower_stabilization(tower)
    if s is None:
        raise NotStabilized("tower not determined on any chain model at this depth")
    return FormModDdbar(tower.chain.models[s], tower.value(s))


def cap_form(c):
    """Cap a closed form with the fundamental class of the special fiber."""
    return FormModDdbar(c.model, cap_fundamental(c.form))


def cap_current(tower):
    if tower.flavor != "closed":
        raise ValueError("cap acts on closed towers")
    return _tower(tower.chain, lambda i: cap_fundamental(tower.value(i)), tower.start)


def module_product_form(c, tower):
    """Action of a direct-limit class on a tower, model-wise after pullback:
    a closed form on a closed or tilde tower, a limit class on a pp tower.
    The product's compatibility is re-verified."""
    chain = tower.chain
    idx = chain.position(c.model)
    if idx is None or idx > tower.start:
        raise CompatibilityViolation("acting class must live on a chain model below the tower")
    acting = _FLAVORS[tower.flavor].acting
    return _tower(chain, lambda i: acting(chain.map_between(i, idx), c) * tower.value(i),
                  tower.start)


def zero_composition_suite(chain, degrees, rng, samples=5):
    """The four cap-then-dd^c style composites on seeded samples.

    Returns a report dict; every composite is asserted to vanish exactly
    (forms side) or modulo gamma images (tilde side).
    """
    report = {"checked": 0, "failures": []}
    for k in degrees:
        for pc_idx, pc in enumerate(chain.models):
            _, basis = dim_affine_pp(pc, k)
            vbasis = vertex_layer_basis(pc, k)
            for _ in range(samples):
                if basis:
                    f = basis[0].scale(0).combine(basis, [rng.randint(-3, 3) for _ in basis])
                    # (1) A_closed -> tilde A -> A_closed
                    c = ClosedForm(pc, f)
                    dd = ddc_form(cap_form(c))
                    if not dd.form.is_zero():
                        report["failures"].append(("ddc.g", pc_idx, k))
                    # (3) tilde A -> A_closed -> tilde A
                    if vbasis:
                        t = zero_vertex_tuple(pc, k).combine(
                            vbasis, [rng.randint(-3, 3) for _ in vbasis])
                        w = ddc_form(FormModDdbar(pc, t))
                        back = cap_form(w)
                        if not class_equal(back.tuple, zero_vertex_tuple(pc, w.degree)):
                            report["failures"].append(("g.ddc", pc_idx, k))
                    report["checked"] += 2
        # (2) and (4): tower versions on the full chain
        _, basis0 = dim_affine_pp(chain.models[0], k)
        if not basis0:
            continue
        for _ in range(samples):
            f0 = basis0[0].scale(0).combine(basis0, [rng.randint(-3, 3) for _ in basis0])
            T = _tower(chain, lambda i: pullback_special(chain.map_between(i, 0), f0) if i else f0)
            TT = cap_current(T)
            dd = ddc_current(TT)
            for i in dd.indices():
                if not dd.value(i).is_zero():
                    report["failures"].append(("ddc.g'", i, k))
            back = cap_current(dd)
            for i in back.indices():
                if not class_equal(back.value(i),
                                   zero_vertex_tuple(chain.models[i], dd.value(i).degree)):
                    report["failures"].append(("g'.ddc", i, k))
            report["checked"] += 2
    return report


def evaluate_tilde_degree_zero(tower, point):
    """Best-effort evaluation of a degree-zero tilde tower at a rational point.

    Searches the chain for a model where the point is a vertex and returns
    that constant; this realizes the tower as a partial function on rational
    points without certifying anything beyond the truncation.
    """
    point = tuple(point)
    for i in tower.indices():
        pc = tower.chain.models[i]
        if point in pc.vertices:
            entry = tower.value(i).entries[point]
            piece = entry.pieces[0]
            if any(p != piece for p in entry.pieces):
                return None
            return piece.coeffs.get((0,) * pc.rank, 0) if piece.degree == 0 else None
    return None


def degree_current(tower):
    """The equivariant degree of a tower, stabilized over the chain.

    Per model: cap with the fundamental class when the tower is closed, then
    integrate component-wise with the localization sum over each vertex
    chart and add up.  This is the pushforward to the residue-field point,
    so compatible towers give one value along the whole chain; disagreement
    raises :class:`NotStabilized`.
    """
    values = []
    vertex_tuple = _FLAVORS[tower.flavor].vertex_tuple
    if vertex_tuple is None:
        raise ValueError("degree acts on closed and tilde towers")
    for i in tower.indices():
        t = vertex_tuple(tower.value(i))
        total = None
        for f in t.pieces:
            part = equivariant_degree(f.fan, f)
            total = part if total is None else total + part
        values.append(total)
    first = values[0]
    if any(v != first for v in values[1:]):
        raise NotStabilized(f"degree values differ along the chain: {values}")
    return first
