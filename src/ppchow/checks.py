"""The acceptance criteria and the core invariant suite.

Every criterion is property-based with independently derived desk-scale
numbers; where a criterion pairs a computation with an oracle, the oracle
here uses a different mechanism (grid evaluation instead of coefficient
restriction, matrix nullity instead of constraint solving) so the two
routes stay independent.  Each check returns a result record; the test
suite and the command-line ``check`` front end both consume these.
"""

import itertools
import random
from fractions import Fraction

from . import fixtures
from .arithchow import (ArithCycle, LimitClass, LimitTower, extended_equal,
                        limit_equal, poincare_lelong_check, theta, theta_inverse,
                        theta_prime, theta_prime_inverse)
from .cycles import InvariantCycle, closure_class, model_cycle_class
from .errors import NotStabilized
from .limits import (ClosedForm, CurrentTower, FormModDdbar, ModelChain, _pulled_back,
                     ddc_current, ddc_plus_delta, degree_current, delta_current,
                     form_mod_equal, green_from_lifting, module_product_form,
                     regularity_check, tower_stabilization, zero_composition_suite)
from .polyhedra import Cone, cone_over, recession_fan, vertex_chart
from .polyring import HomogPoly, monomial_exponents
from .ppfan import (constant_pp, equivariant_degree, graded_basis, phi_cone, phi_ray,
                    zero_pp)
from .qlinalg import rank
from .specialfiber import (VertexTuple, alpha, class_equal, ddc_model, dim_affine_pp,
                           dim_ker_rho, from_vertex_tuple, gamma, gamma_image_matrix,
                           homology_presentation, iota_upper, ker_coker_report,
                           ddc_one_shot, pullback_special, rho, to_vertex_tuple,
                           vertex_layer_basis, zero_vertex_tuple, zeta)


class CheckResult:
    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def as_dict(self):
        return {"name": self.name, "pass": self.passed, "detail": self.detail}

    def line(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


_PRIME = 2 ** 61 - 1


def _rank_mod_prime(rows):
    """Rank modulo p = 2^61 - 1 of a rational matrix, by elimination that
    uses no ppchow linear algebra; it equals the rank over Q unless p divides
    every nonzero maximal minor."""
    rows = [[x.numerator * pow(x.denominator, -1, _PRIME) % _PRIME for x in r] for r in rows]
    rank_ = 0
    while rows:
        row = rows.pop()
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            rank_ += 1
            inv = pow(row[c], -1, _PRIME)
            rows = [[(x - f * y) % _PRIME for x, y in zip(r, row)] if (f := r[c] * inv) else r
                    for r in rows]
    return rank_


def pp_dims_by_grid_oracle(fan, k):
    """Brute-force dimension of PP^k by grid evaluation of the gluing rules.

    A homogeneous degree-k polynomial vanishes on a subspace iff it vanishes
    on the grid {0..k}^r spanned by a basis, so the face constraints become
    point evaluations; the dimension is the number of unknowns minus the
    rank of that system modulo a large prime.  This shares no code path
    with graded_basis, which eliminates the face monomials of a simplicial
    fan, or the gluing system of any other fan, over Q.
    """
    maxs = fan.max_cones()
    monos = monomial_exponents(fan.rank, k)
    width = len(monos) * len(maxs)
    rows = []
    for (i, ci), (j, cj) in itertools.combinations(enumerate(maxs), 2):
        inter = ci.intersect(cj)
        if inter is None:
            continue
        span = inter.span()
        r = len(span)
        for lam in itertools.product(range(k + 1), repeat=r):
            point = tuple(sum(Fraction(lam[t]) * span[t][s] for t in range(r))
                          for s in range(fan.rank))
            row = [Fraction(0)] * width
            for col, e in enumerate(monos):
                val = HomogPoly(fan.rank, k, {e: 1}).evaluate(point)
                row[i * len(monos) + col] += val
                row[j * len(monos) + col] -= val
            rows.append(row)
    return width - _rank_mod_prime(rows)


def fixture_chains():
    return {"P1": ModelChain(fixtures.p1_chain()),
            "P2": ModelChain(fixtures.p2_chain())}


def prime_cycles(chain):
    """The toric prime cycles of the generic fiber: one per nonzero cone."""
    rec = recession_fan(chain.models[0])
    out = []
    for c in rec.cones:
        if c.dim >= 1:
            out.append(InvariantCycle(rec.rank, c.dim, {c.rays: 1}))
    return out


def criterion_1():
    # Stated from the combinatorics, not from either route.  The PP ring of a
    # complete simplicial fan is free over Sym(M) with Hilbert series
    # h(t)/(1-t)^n.  F1: (1+t)/(1-t).  F3 (the P^2 fan, h = (1, 1, 1)):
    # (1+t+t^2)/(1-t)^2, whose t^3 coefficient is 4+3+2 = 9; directly,
    # 3 cones x 4 cubic coefficients minus 1 agreement condition per ray = 12-3.
    expected = {"F1": (1, 2, 2, 2), "F3": (1, 3, 6, 9)}
    fans = {"F1": fixtures.f1_fan(), "F3": fixtures.f3_fan()}
    detail = []
    ok = True
    for name, fan in fans.items():
        computed = tuple(len(graded_basis(fan, k)) for k in range(4))
        oracle = tuple(pp_dims_by_grid_oracle(fan, k) for k in range(4))
        routes_agree = computed == oracle
        matches = computed == expected[name]
        ok = ok and routes_agree and matches
        detail.append(f"{name}: graded_basis={computed}, oracle={oracle}, "
                      f"stated={expected[name]}")
    return CheckResult("1 PP-ring dimensions", ok, "; ".join(detail))


def criterion_2():
    ok = True
    detail = []
    for name, pc in fixtures.all_fixture_models().items():
        for k in range(4):
            dim_facet, basis = dim_affine_pp(pc, k)
            dim_kernel = dim_ker_rho(pc, k)
            tuples = [to_vertex_tuple(b) for b in basis]
            in_kernel = all(rho(t).is_zero() for t in tuples)
            independent = rank([t.coords() for t in tuples]) == dim_facet
            good = dim_facet == dim_kernel and in_kernel and independent
            ok = ok and good
            if not good:
                detail.append(f"{name} k={k}: facet={dim_facet}, ker={dim_kernel}")
    return CheckResult("2 affine-PP = ker(rho)", ok,
                       "; ".join(detail) if detail else "all fixture models, k<=3")


def criterion_3():
    # ranks modulo a prime, by no ppchow elimination: the gamma image and the
    # representatives span the vertex layer, and rho's nullity is dim A^k
    ok = True
    detail = []
    for name, pc in fixtures.all_fixture_models().items():
        for k in range(4):
            hp = homology_presentation(pc, k)
            gamma_cols = gamma_image_matrix(pc, k)
            reps = [r.tuple.coords() for r in hp["basis"]]
            if (_rank_mod_prime(gamma_cols) != hp["gamma_rank"] or len(reps) != hp["dim"]
                    or _rank_mod_prime(gamma_cols + reps) != hp["vertex_dim"]):
                ok = False
                detail.append(f"{name} k={k}: homology ranks")
            cols = [rho(b).coords() for b in vertex_layer_basis(pc, k)]
            if len(cols) - _rank_mod_prime(cols) != dim_affine_pp(pc, k)[0]:
                ok = False
                detail.append(f"{name} k={k}: ker rho two ways")
    return CheckResult("3 exact sequences", ok,
                       "; ".join(detail) if detail else "rank identities, k<=3")


def criterion_4():
    ok = True
    for pc in (fixtures.f1_complex(), fixtures.f3_complex()):
        for k in range(4):
            for b in vertex_layer_basis(pc, k):
                if not ddc_model(b).is_zero():
                    ok = False
    return CheckResult("4 iota*iota_* = 0 on canonical models", ok,
                       "operator identically zero in degrees <= 3")


def criterion_5(seed=0):
    rng = random.Random(seed)
    ok = True
    count = 0
    for name, pc in fixtures.all_fixture_models().items():
        for trial in range(50):
            k = trial % 3
            basis = vertex_layer_basis(pc, k)
            t = zero_vertex_tuple(pc, k).combine(basis, [rng.randint(-4, 4) for _ in basis])
            if -gamma(rho(t)) != ddc_one_shot(t):
                ok = False
            count += 1
    return CheckResult("5 one-pass form of -gamma.rho", ok,
                       f"{count} seeded tuples across fixtures, exact")


def criterion_6():
    ok = True
    detail = []
    for name, pc in (("F2", fixtures.f2_complex()), ("F5", fixtures.f5_complex()),
                     ("F3C", fixtures.f3_complex()), ("F3S", fixtures.f3s_complex())):
        for k in range(3):
            rep = ker_coker_report(pc, k)
            if not rep["equal"]:
                ok = False
            detail.append(f"{name},k={k}:{rep['ker']}")
    p1 = ker_coker_report(fixtures.f2_complex(), 1)
    ok = ok and p1["ker"] == 2
    return CheckResult("6 ker/coker invariance", ok, ",".join(detail))


def criterion_7():
    ok = True
    names = []
    for name, pc in fixtures.all_fixture_models().items():
        co = cone_over(pc)
        n = pc.rank
        charts = [vertex_chart(pc, v) for v in pc.vertices]
        total = zero_pp(co.fan, 1).combine(
            [phi_ray(co.fan, tuple(x * c.multiplicity for x in c.vertex)
                     + (Fraction(c.multiplicity),)) for c in charts],
            [c.multiplicity for c in charts])
        t_form = HomogPoly.linear_form((0,) * n + (1,))
        expected = [t_form] * len(co.fan.maximal)
        if list(total.pieces) != expected:
            ok = False
        names.append(name)
    return CheckResult("7 fundamental-class identity", ok,
                       f"sum m_v phi_ray(v) = t on {', '.join(names)} (m=2 on F6)")


def criterion_8():
    ok = True
    checked = 0
    for cname, chain in fixture_chains().items():
        for start in range(len(chain)):
            for eta in prime_cycles(chain):
                pc = chain.models[start]
                lift = closure_class(pc, eta)
                g = green_from_lifting(chain, start, lift, eta)
                if not _pulled_back(ddc_plus_delta(g, eta), start, iota_upper(pc, lift)):
                    ok = False
                checked += 1
    return CheckResult("8 Green property", ok,
                       f"dd^c g + delta = slice of lifting, {checked} (model, cycle) pairs")


def criterion_9():
    chains = fixture_chains()
    ok = True
    runs = []
    for u in [(1,)]:
        r = poincare_lelong_check(chains["P1"], Cone(1, []), u)
        ok = ok and r["all_equal"]
        runs.append(f"P1 u={u}")
    for u in [(1, 0), (0, 1)]:
        r = poincare_lelong_check(chains["P2"], Cone(2, []), u)
        ok = ok and r["all_equal"]
        runs.append(f"P2 u={u}")
    return CheckResult("9 Poincare-Lelong", ok, "; ".join(runs))


def criterion_10(seed=0):
    rng = random.Random(seed)
    ok = True
    total = 0
    for cname, chain in fixture_chains().items():
        rep = zero_composition_suite(chain, [0, 1], rng, samples=5)
        ok = ok and not rep["failures"]
        total += rep["checked"]
    return CheckResult("10 zero compositions", ok, f"{total} composite samples, exact")


def criterion_11():
    chain = fixture_chains()["P1"]
    ok = True
    notes = []
    samples = [
        (0, InvariantCycle(2, 1, {(((1, 0)),): 1})),
        (0, InvariantCycle(2, 1, {(((-1, 0)),): 1})),
        (1, InvariantCycle(2, 1, {(((0, 1)),): 1, (((1, 0)),): 2})),
        (1, InvariantCycle(2, 1, {(((1, 1)),): 1, (((-1, 0)),): -1})),
    ]
    for start, cyc in samples:
        a = theta(chain, start, cyc)
        la = theta_inverse(a)
        target = LimitClass(chain.models[start],
                            model_cycle_class(chain.models[start], cyc))
        if not limit_equal(la, target):
            ok = False
            notes.append("theta round trip failed")
        b = theta(chain, start, cyc)
        if not (a.eta == b.eta and all(
                class_equal(a.green.value(i), b.green.value(i))
                for i in a.green.indices())):
            ok = False
    # theta-prime round trips on closure towers and vertical-lift towers
    eta = InvariantCycle(1, 1, {(((1,)),): 1})
    vals = {i: closure_class(chain.models[i], eta) for i in range(len(chain))}
    T = LimitTower(chain, vals)
    x = theta_prime(T)
    if not (x.eta == eta and all(x.green.value(i).is_zero() for i in range(len(chain)))):
        ok = False
        notes.append("theta' on closure tower")
    T2 = theta_prime_inverse(x)
    if not all(T2.value(i) == T.value(i) for i in range(len(chain))):
        ok = False
        notes.append("theta' round trip")
    vcyc = InvariantCycle(2, 1, {(((0, 1)),): 1})
    bv = theta(chain, 1, vcyc)
    xb = ArithCycle(chain, InvariantCycle(1, 1, {}), bv.green)
    Tb = theta_prime_inverse(xb)
    yb = theta_prime(Tb)
    if not (yb.eta.is_zero() and extended_equal(xb, yb)):
        ok = False
        notes.append("theta' on vertical tower")
    return CheckResult("11 theta round trips", ok,
                       "; ".join(notes) if notes else "depth-3 chain F1<=F2<=F5, exact")


def criterion_12():
    ok = True
    f1 = fixtures.f1_fan()
    d1 = equivariant_degree(f1, phi_cone(f1, f1.max_cones()[0]))
    f3 = fixtures.f3_fan()
    d3 = equivariant_degree(f3, phi_cone(f3, f3.max_cones()[0]))
    one1 = HomogPoly.constant(1, 1)
    one3 = HomogPoly.constant(2, 1)
    ok = ok and d1 == one1 and d3 == one3
    chain = fixture_chains()["P1"]
    point = InvariantCycle(1, 1, {(((1,)),): 1})
    d = delta_current(chain, point)
    deg = degree_current(d)
    ok = ok and deg == HomogPoly.constant(1, 1)
    return CheckResult("12 equivariant degree", ok,
                       f"phi_max degrees: {d1!r}, {d3!r}; point-class delta degree {deg!r}")


def criterion_13():
    ok = True
    notes = []
    certified = 0
    inconclusive = 0
    for cname, chain in fixture_chains().items():
        for start in range(len(chain)):
            for eta in prime_cycles(chain):
                pc = chain.models[start]
                g = green_from_lifting(chain, start, closure_class(pc, eta), eta)
                dd = ddc_current(g)
                dd_stable = tower_stabilization(dd)
                g_stable = tower_stabilization(g)
                try:
                    result = regularity_check(g)
                except NotStabilized:
                    result = None
                if result is not None:
                    certified += 1
                    # never mis-certify: the reported model must be the
                    # earliest genuinely stable one
                    idx = chain.position(result.model)
                    if g_stable != idx:
                        ok = False
                        notes.append(f"{cname} start={start}: wrong model certified")
                    # when the defining model is genuinely stable it must be
                    # the one recovered
                    if g_stable == start and idx != start:
                        ok = False
                        notes.append(f"{cname} start={start}: defining model missed")
                else:
                    inconclusive += 1
                    # Prop 5.7: a stabilized dd^c must yield a certificate
                    if dd_stable is not None and g_stable is not None:
                        ok = False
                        notes.append(f"{cname} start={start}: certificate withheld")
    # adversarial towers: violate form-ness at depth <= 3, must never certify
    chain = fixture_chains()["P1"]
    F5 = chain.models[2]
    bad_entry = {F5.vertices[-1]: constant_pp(vertex_chart(F5, F5.vertices[-1]).fan, 1)}
    bad = CurrentTower(chain, values={
        0: zero_vertex_tuple(chain.models[0], 0),
        1: zero_vertex_tuple(chain.models[1], 0),
        2: VertexTuple(F5, 0, bad_entry)})
    try:
        regularity_check(bad)
        ok = False
        notes.append("adversarial tower was certified")
    except NotStabilized:
        pass
    shallow = CurrentTower(chain.truncate(1),
                           values={0: zero_vertex_tuple(chain.models[0], 0)})
    try:
        regularity_check(shallow)
        ok = False
        notes.append("depth-1 tower was certified")
    except NotStabilized:
        pass
    return CheckResult("13 regularity", ok,
                       "; ".join(notes) if notes else
                       f"{certified} certified at their stabilizing model, "
                       f"{inconclusive} honestly inconclusive, adversarial towers rejected")


def run_acceptance(seed=0):
    return [criterion_1(), criterion_2(), criterion_3(), criterion_4(),
            criterion_5(seed), criterion_6(), criterion_7(), criterion_8(),
            criterion_9(), criterion_10(seed), criterion_11(), criterion_12(),
            criterion_13()]


# ---------------------------------------------------------------------------
# core invariant suite (beyond the acceptance criteria)
# ---------------------------------------------------------------------------


def invariant_transfer_diagrams(seed=0):
    """dd^c commutes with the transfer maps on sampled data."""
    rng = random.Random(seed)
    ok = True
    for chain in fixture_chains().values():
        for step, m in enumerate(chain.maps):
            src, tgt = m.source, m.target
            for k in range(2):
                basis_t = vertex_layer_basis(tgt, k)
                basis_s = vertex_layer_basis(src, k)
                for _ in range(3):
                    t = zero_vertex_tuple(tgt, k).combine(
                        basis_t, [rng.randint(-2, 2) for _ in basis_t])
                    lhs = from_vertex_tuple(ddc_model(zeta(m, t)))
                    rhs = pullback_special(m, from_vertex_tuple(ddc_model(t)))
                    ok = ok and lhs == rhs
                    s = zero_vertex_tuple(src, k).combine(
                        basis_s, [rng.randint(-2, 2) for _ in basis_s])
                    lhs2 = alpha(m, ddc_model(s))
                    rhs2 = ddc_model(alpha(m, s))
                    ok = ok and class_equal(lhs2, rhs2)
    return CheckResult("transfer diagrams", ok, "dd^c commutes with zeta and alpha")


def invariant_im_ddc_in_ker_rho(seed=0):
    ok = True
    for pc in fixtures.all_fixture_models().values():
        for k in range(2):
            for b in vertex_layer_basis(pc, k):
                out = ddc_model(b)
                ok = ok and rho(out).is_zero()
    return CheckResult("Im(-gamma.rho) in ker(rho)", ok, "eq. (5.1) on fixture bases")


def invariant_module_structure(seed=0):
    """dd^c is a module map over closed forms, on models and on a tower of
    the P1 chain, where a closed form acts by ``module_product_form``; the
    induced product is sampled for commutativity and the result
    reported."""
    ok = True
    commutative = True
    for pc in (fixtures.f2_complex(), fixtures.f5_complex()):
        _, forms = dim_affine_pp(pc, 1)
        tuples = vertex_layer_basis(pc, 1)
        for c in forms[:3]:
            ct = to_vertex_tuple(c)
            for t in tuples[:3]:
                lhs = from_vertex_tuple(ddc_model(ct * t))
                rhs = c * from_vertex_tuple(ddc_model(t))
                ok = ok and lhs == rhs
        for c in forms[:2]:
            for d in forms[:2]:
                cd = cap_then_ddc(pc, c, d)
                dc = cap_then_ddc(pc, d, c)
                if cd != dc:
                    commutative = False
    # a component class of F2 pulled up the chain, whose dd^c is not zero
    chain = fixture_chains()["P1"]
    t = vertex_layer_basis(chain.models[1], 0)[0]
    T = CurrentTower(chain, {i: zeta(chain.map_between(i, 1), t) for i in range(1, len(chain))}, 1)
    ddc_T = ddc_current(T)
    for f in dim_affine_pp(chain.models[0], 1)[1][:2]:
        c = ClosedForm(chain.models[0], f)
        lhs, rhs = ddc_current(module_product_form(c, T)), module_product_form(c, ddc_T)
        ok = ok and all(lhs.value(i) == rhs.value(i) for i in lhs.indices())
    return CheckResult("module structure of dd^c", ok,
                       f"module law exact; induced product commutative on samples: {commutative}")


def cap_then_ddc(pc, c, d):
    """The induced product c . dd^c(d) of two degree-one classes."""
    t = to_vertex_tuple(d)
    dd = from_vertex_tuple(ddc_model(t))
    return c * dd


def invariant_limit_transitivity():
    chain = fixture_chains()["P1"]
    F1, F2, F5 = chain.models
    ok = True
    for k in range(2):
        for b in vertex_layer_basis(F1, k):
            a1 = FormModDdbar(F1, b)
            a2 = FormModDdbar(F2, zeta(chain.maps[0], b))
            a3 = FormModDdbar(F5, zeta(chain.map_between(2, 0), b))
            ok = ok and form_mod_equal(a1, a2) and form_mod_equal(a2, a3) \
                and form_mod_equal(a1, a3)
    return CheckResult("direct-limit transitivity", ok, "three-model chains")


def run_core(seed=0):
    return [invariant_im_ddc_in_ker_rho(seed), invariant_transfer_diagrams(seed),
            invariant_module_structure(seed), invariant_limit_transitivity()]
