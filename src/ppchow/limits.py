"""Limits of special-fiber Chow groups: forms, currents, delta and Green.

Every group here is a limit over the directed set of models, presented on a
finite chain of them; only the transfer maps differ.  A *flavor* names
them, and ``_FLAVORS`` holds one row per flavor:

* ``"closed"``: affine piecewise polynomials on the special fiber.  The
  direct limit is the closed forms (:class:`ClosedForm`), pulled back by
  ``pullback_special``; the inverse limit is the closed currents, pushed
  forward by ``beta``; equality is cell-wise.
* ``"tilde"``: vertex tuples modulo the image of gamma.  The direct limit is
  the forms modulo dd^c (:class:`FormModDdbar`), pulled back by ``zeta``; the
  inverse limit is the currents modulo boundaries, pushed forward by
  ``alpha``; equality is ``class_equal``.
* ``"pp"``: piecewise polynomials on the cone over a model.  The direct
  limit is the limit classes of ``arithchow`` (``LimitClass``), pulled back
  by ``pullback``; the inverse limit is the towers of the extended
  arithmetic Chow group (``LimitTower``), pushed forward by ``pushforward``;
  equality is ``==``.

Two direct-limit classes are compared or multiplied after
:func:`on_common_model` pulls both back to a model refining their own.  An
inverse-limit element is a :class:`CurrentTower` of one flavor: its
compatibility check, stabilization test and closed-form action read the
maps from the same row.

Inverse limits are truncations: an explicit chain of models plus, for the
rule-defined currents (delta, Green, vertical divisor corrections), a memo
cache keyed by chain position so evaluators stay pure.  Stabilization
detection is always chain-relative: a tower counts as stabilized at the
earliest model whose transfer system reproduces every later value, with at
least one later value materialized to confirm.
"""

import operator
from collections import namedtuple

from .errors import (CompatibilityViolation, InputError, NotALifting,
                     NotARefinement, NotStabilized)
from .cycles import closure_class
from .polyhedra import common_refinement, cone_over, recession_fan, refines
from .ppfan import (equivariant_degree, pullback, pushforward,
                    restrict_to_height_zero, zero_pp)
from .specialfiber import (AffinePP, alpha, beta, cap_fundamental, class_equal,
                           ddc_model, from_vertex_tuple, iota_upper,
                           pullback_special, to_vertex_tuple,
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

    def map_between(self, fine_idx, coarse_idx):
        """The ModelMap models[fine_idx] -> models[coarse_idx]; refinement is
        transitive, so it exists, and ``refines`` keeps it on the finer model."""
        return refines(self.models[fine_idx], self.models[coarse_idx])


def common_model(pc1, pc2):
    """A model refining both inputs, with the two refinement maps."""
    if pc1.same_as(pc2):
        m = refines(pc1, pc2)
        return pc1, m, m
    m12 = refines(pc1, pc2)
    if m12 is not None:
        return pc1, refines(pc1, pc1), m12
    m21 = refines(pc2, pc1)
    if m21 is not None:
        return pc2, m21, refines(pc2, pc2)
    cr = common_refinement(pc1, pc2)
    return cr, refines(cr, pc1), refines(cr, pc2)


# What a flavor decides: the name and map that push a tower value to the
# coarser model, the map that pulls a value to the finer model, equality of
# values, the zero value, the representative of a direct-limit class, the
# value a direct-limit class acts by after pullback along a model map, and
# the vertex tuple whose degree is a value's (None: no degree is defined).
# The lambdas look the maps up when called, so a rebound module name is seen
# through the table too.
_Flavor = namedtuple("_Flavor", "pushforward push pull equal zero rep acting vertex_tuple")

_FLAVORS = {
    "closed": _Flavor(pushforward="pushforward",
                      push=lambda m, a: beta(m, a),
                      pull=lambda m, a: pullback_special(m, a),
                      equal=operator.eq,
                      zero=lambda pc, k: AffinePP(pc, k, {}, validate=False),
                      rep=operator.attrgetter("form"),
                      acting=lambda m, c: pullback_special(m, c.form),
                      vertex_tuple=lambda a: cap_fundamental(a).tuple),
    "tilde": _Flavor(pushforward="vertex pushforward",
                     push=lambda m, t: alpha(m, t),
                     pull=lambda m, t: zeta(m, t),
                     equal=lambda s, t: class_equal(s, t),
                     zero=lambda pc, k: zero_vertex_tuple(pc, k),
                     rep=operator.attrgetter("tuple"),
                     acting=lambda m, c: to_vertex_tuple(pullback_special(m, c.form)),
                     vertex_tuple=lambda t: t),
    "pp": _Flavor(pushforward="model pushforward",
                  push=lambda m, f: pushforward(m.fan_map, f),
                  pull=lambda m, f: pullback(m.fan_map, f),
                  equal=operator.eq,
                  zero=lambda pc, k: zero_pp(cone_over(pc).fan, k),
                  rep=operator.attrgetter("pp"),
                  acting=lambda m, c: pullback(m.fan_map, c.pp),
                  vertex_tuple=None),
}


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
        if form.complex is not model and not form.complex.same_as(model):
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


def form_product(a, b):
    pc, x, y = on_common_model("closed", a, b)
    return ClosedForm(pc, x * y)


class FormModDdbar:
    """An element of the direct limit of homology layers, presented on one
    model by a vertex tuple (considered modulo the image of gamma)."""

    __slots__ = ("model", "tuple")

    def __init__(self, model, t):
        self.model = model
        self.tuple = t

    @property
    def degree(self):
        return self.tuple.degree

    def __repr__(self):
        return f"FormModDdbar(deg={self.tuple.degree} on {self.model!r})"


def form_mod_equal(a, b):
    return limit_equal_in("tilde", a, b)


def ddc_form(c):
    """dd^c of a form class: -gamma.rho of the representative, certified to
    land in ker(rho) on the same model and wrapped as a closed form."""
    out = ddc_model(c.tuple)
    return ClosedForm(c.model, from_vertex_tuple(out))


class CurrentTower:
    """A truncated inverse-limit element over a model chain.

    ``flavor`` names the row of ``_FLAVORS`` that gives the values' pushforward
    and equality: "closed" (affine-PP values), "tilde" (vertex-tuple values
    modulo gamma images) or "pp" (PP classes on the cones over the models).
    Values either come materialized or from a rule; rule evaluation memoizes,
    so towers stay externally pure.
    """

    __slots__ = ("chain", "flavor", "start", "rule", "_values")

    def __init__(self, chain, flavor, values=None, rule=None, start=0):
        if flavor not in _FLAVORS:
            raise ValueError("flavor must be 'closed', 'tilde' or 'pp'")
        self.chain = chain
        self.flavor = flavor
        self.start = start
        self.rule = rule
        self._values = dict(values or {})

    def indices(self):
        return range(self.start, len(self.chain))

    def value(self, i):
        if i < self.start:
            raise IndexError("below the tower's first materialized model")
        if i not in self._values:
            if self.rule is None:
                raise IndexError(f"no value at chain position {i}")
            self._values[i] = self.rule(i)
        return self._values[i]

    def materialize(self):
        for i in self.indices():
            self.value(i)
        return self

    def check_compat(self):
        """Exact compatibility on every consecutive materialized pair."""
        ops = _FLAVORS[self.flavor]
        for i in self.indices():
            if i + 1 >= len(self.chain):
                break
            pushed = ops.push(self.chain.maps[i], self.value(i + 1))
            if not ops.equal(pushed, self.value(i)):
                raise CompatibilityViolation(
                    f"{ops.pushforward} from model {i + 1} to {i} mismatches",
                    witness=(i, i + 1))
        return True

    def map_values(self, fn, flavor=None):
        vals = {i: fn(i, self.value(i)) for i in self.indices()}
        return CurrentTower(self.chain, flavor or self.flavor, values=vals,
                            start=self.start)


def zero_tower(chain, flavor, degree):
    zero = _FLAVORS[flavor].zero
    vals = {i: zero(chain.models[i], degree) for i in range(len(chain))}
    return CurrentTower(chain, flavor, values=vals)


def ddc_current(tower):
    """Model-wise dd^c of a tilde tower; output compatibility re-verified."""
    if tower.flavor != "tilde":
        raise ValueError("dd^c acts on tilde towers")
    out = tower.map_values(lambda i, t: from_vertex_tuple(ddc_model(t)), flavor="closed")
    out.check_compat()
    return out


def tower_stabilization(tower):
    """Earliest chain position whose transfer system reproduces all later
    values, or None.  Requires at least one later model as confirmation."""
    chain = tower.chain
    ops = _FLAVORS[tower.flavor]
    last = len(chain) - 1
    for s in tower.indices():
        if s == last:
            return None
        if all(ops.equal(ops.pull(chain.map_between(j, s), tower.value(s)), tower.value(j))
               for j in range(s + 1, len(chain))):
            return s
    return None


def delta_current(chain, cycle):
    """The closed current of a horizontal cycle: per model, the slice of the
    class of its Zariski closure."""
    def rule(i):
        pc = chain.models[i]
        return iota_upper(pc, closure_class(pc, cycle))
    t = CurrentTower(chain, "closed", rule=rule)
    t.materialize()
    t.check_compat()
    return t


def green_from_lifting(chain, start, lifting, cycle):
    """The Green current of a cycle from a lifting on chain model ``start``.

    The lifting is a PP class on the cone over that model restricting to the
    cycle's class on the recession fan (checked; :class:`NotALifting`
    otherwise).  On each finer chain model the value is the vertical part of
    pullback-minus-closure, decomposed through the vertical lift.
    """
    pc0 = chain.model(start)
    rec = recession_fan(pc0)
    eta_class = closure_class(pc0, cycle)
    restr_lift = restrict_to_height_zero(pc0, lifting)
    restr_eta = restrict_to_height_zero(pc0, eta_class)
    if restr_lift != restr_eta:
        raise NotALifting("lifting does not restrict to the cycle's class")

    def rule(i):
        pc = chain.models[i]
        m = chain.map_between(i, start)
        pulled = pullback(m.fan_map, lifting)
        diff = pulled - closure_class(pc, cycle)
        return vertical_decompose(pc, diff)

    t = CurrentTower(chain, "tilde", rule=rule, start=start)
    t.materialize()
    t.check_compat()
    return t


def is_green(tower, cycle):
    """dd^c(tower) + delta(cycle) along the chain; Some(stabilized closed
    form) when that sum is a pullback system, None otherwise.  Incompatible
    input towers are surfaced as :class:`CompatibilityViolation`."""
    chain = tower.chain
    tower.check_compat()
    delta = delta_current(chain, cycle)

    def value(i):
        dd = from_vertex_tuple(ddc_model(tower.value(i)))
        return dd + delta.value(i)

    sum_tower = CurrentTower(chain, "closed",
                             values={i: value(i) for i in tower.indices()},
                             start=tower.start)
    s = tower_stabilization(sum_tower)
    if s is None:
        return None
    return ClosedForm(chain.models[s], sum_tower.value(s))


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
    return FormModDdbar(c.model, cap_fundamental(c.form).tuple)


def cap_current(tower):
    if tower.flavor != "closed":
        raise ValueError("cap acts on closed towers")
    out = tower.map_values(lambda i, f: cap_fundamental(f).tuple, flavor="tilde")
    out.check_compat()
    return out


def module_product_form(c, tower):
    """Action of a direct-limit class on a tower, model-wise after pullback:
    a closed form on a closed or tilde tower, a limit class on a pp tower.
    The product's compatibility is re-verified."""
    chain = tower.chain
    idx = next((i for i, m in enumerate(chain.models) if m.same_as(c.model)), None)
    if idx is None or idx > tower.start:
        raise CompatibilityViolation("acting class must live on a chain model below the tower")
    acting = _FLAVORS[tower.flavor].acting
    out = tower.map_values(lambda i, val: acting(chain.map_between(i, idx), c) * val)
    out.check_compat()
    return out


def zero_composition_suite(chain, degrees, rng, samples=5):
    """The four cap-then-dd^c style composites on seeded samples.

    Returns a report dict; every composite is asserted to vanish exactly
    (forms side) or modulo gamma images (tilde side).
    """
    from .specialfiber import dim_affine_pp, vertex_layer_basis
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
            vals = {0: f0}
            for i in range(1, len(chain)):
                vals[i] = pullback_special(chain.map_between(i, 0), f0)
            T = CurrentTower(chain, "closed", values=vals)
            T.check_compat()
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


def closed_degree_one_evaluator(c):
    """Best-effort function realization of a degree-one closed form.

    Homogeneous-per-cell data determines a continuous piecewise affine
    function only up to the additive constants; this solves the constant
    gluing conditions across shared facets, normalizes the first cell's
    constant to zero and returns an evaluator, or None when the gluing
    system is unsolvable (reported, not asserted).
    """
    from .qlinalg import mat, solve, vec
    pc = c.model
    pieces = c.form._parts()
    rows, rhs = [], []
    for p, q, dirspan, (verts, _) in pc.adjacency():
        if len(dirspan) != pc.rank - 1:
            continue
        x = verts[0]
        row = [0] * len(pieces)
        row[p] = 1
        row[q] = -1
        rows.append(row)
        rhs.append(pieces[q].evaluate(x) - pieces[p].evaluate(x))
    rows.append([1] + [0] * (len(pieces) - 1))
    rhs.append(0)
    consts = solve(mat(rows), vec(rhs))
    if consts is None:
        return None

    def evaluate(point):
        if pc.find_cell(point) is None:
            return None
        p = next(p for p, m in enumerate(pc.max_cells()) if m.contains_point(point))
        return pieces[p].evaluate(point) + consts[p]

    return evaluate


def degree_current(tower):
    """The equivariant degree of a tower, stabilized over the chain.

    Per model: cap with the fundamental class when the tower is closed, then
    integrate component-wise with the localization sum over each vertex
    chart and add up.  This is the pushforward to the residue-field point,
    so compatible towers give one value along the whole chain; disagreement
    raises :class:`NotStabilized`.
    """
    from .polyhedra import vertex_chart
    values = []
    vertex_tuple = _FLAVORS[tower.flavor].vertex_tuple
    if vertex_tuple is None:
        raise ValueError("degree acts on closed and tilde towers")
    for i in tower.indices():
        pc = tower.chain.models[i]
        t = vertex_tuple(tower.value(i))
        total = None
        for v in pc.vertices:
            part = equivariant_degree(vertex_chart(pc, v).fan, t.entries[v])
            total = part if total is None else total + part
        values.append(total)
    first = values[0]
    if any(v != first for v in values[1:]):
        raise NotStabilized(f"degree values differ along the chain: {values}")
    return first
