"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload has ``setup(pp, seed)``, which generates, builds and validates
its input models, and ``round_ops(pp, state)``, which returns one round of
operations on fresh program objects, so that no round reuses what an
earlier round left in the models' caches.  ``pp`` is a namespace of the
ppchow modules; functions are looked up on it at call time, so the tracer's
wrappers apply.

An operation's ``run`` holds only calls into the program.  Its ``check``
runs afterwards, untimed and untraced, and returns a list of problems.
"""

import itertools
import json
import random
from fractions import Fraction

import oracles


class Op:
    __slots__ = ("name", "run", "check", "largest")

    def __init__(self, name, run, check, largest=False):
        self.name = name
        self.run = run
        self.check = check
        self.largest = largest


def _ints(v):
    return tuple(int(x) for x in v)


# ---------------------------------------------------------------------------
# suite: the acceptance criteria and the core invariants
# ---------------------------------------------------------------------------


class Suite:
    name = "suite"
    largest = "criterion_13"   # regularity over both fixture chains; unseeded
    CRITERIA = tuple(f"criterion_{i}" for i in range(1, 14))
    SEEDED = {"criterion_5", "criterion_10", "invariant_im_ddc_in_ker_rho",
              "invariant_transfer_diagrams", "invariant_module_structure"}
    CORE = ("invariant_im_ddc_in_ker_rho", "invariant_transfer_diagrams",
            "invariant_module_structure", "invariant_limit_transitivity")

    def setup(self, pp, seed):
        # The criteria build their own fixtures; set-up builds and validates
        # the same models and chains once, which is what it measures here.
        for name, pc in pp.fixtures.all_fixture_models().items():
            if not pc.is_complete():
                raise RuntimeError(f"fixture {name} is not complete")
        pp.checks.fixture_chains()
        return {"seed": seed}

    def round_ops(self, pp, state):
        seed = state["seed"]
        ops = []
        for fname in self.CRITERIA + self.CORE:
            def run(fname=fname):
                fn = getattr(pp.checks, fname)
                return fn(seed) if fname in self.SEEDED else fn()
            ops.append(Op(fname, run, check_criterion, largest=fname == self.largest))
        return ops


def check_criterion(result):
    if result.passed is not True:
        return [f"{result.name} failed: {result.detail}"]
    return []


# ---------------------------------------------------------------------------
# p2-refine: rank-two models grown from F3C
# ---------------------------------------------------------------------------

# c(F3C): the vertex 0 at height one and the rays of the P^2 fan at height 0.
F3C_CONES = (((0, 0, 1), (1, 0, 0), (0, 1, 0)),
             ((0, 0, 1), (0, 1, 0), (-1, -1, 0)),
             ((0, 0, 1), (-1, -1, 0), (1, 0, 0)))
N_BOUNDARY = 3      # rays of the recession fan of every model grown from F3C


def grow_p2(seed, steps):
    """Maximal cones of c(Pi) after each of ``steps`` stellar subdivisions.

    Every subdivision is at the sum of the rays of a cone of c(Pi) with
    exactly one ray at height one, so the new vertex is a lattice point: the
    special fibre stays reduced and, the cones being unimodular, c(Pi) and
    every vertex chart stay regular.  Even steps subdivide the unbounded
    2-cell with one vertex in a seeded sector of the recession fan; odd steps
    subdivide the unbounded edge from the newest vertex along a seeded one
    of its two rays, which makes a triangle.  The seed moves the cells but
    not their numbers: vertex, edge and cell counts depend on ``steps``
    alone, so that the cost of a model varies little between seeds.
    Returns a list of cone sets, one per model, F3C first.
    """
    rng = random.Random(f"p2-refine:{seed}")
    cones = [frozenset(c) for c in F3C_CONES]
    history = [cones]
    newest = None
    for step in range(steps):
        if step % 2 == 0:
            faces = sorted(tuple(sorted(c)) for c in cones if sum(r[2] for r in c) == 1)
        else:
            faces = sorted({(newest, r) if newest < r else (r, newest)
                            for c in cones if newest in c for r in c if r[2] == 0})
        tau = rng.choice(faces)
        newest = tuple(sum(r[i] for r in tau) for i in range(3))
        new = []
        for c in cones:
            if set(tau) <= c:
                new.extend((c - {r}) | {newest} for r in tau)
            else:
                new.append(c)
        cones = new
        history.append(cones)
    return history


class P2Model:
    """The benchmark's own description of one rank-two model."""

    def __init__(self, cones):
        self.cones = sorted(cones, key=sorted)
        self.vertices = sorted({r[:2] for c in cones for r in c if r[2] == 1})
        # shared faces of c(Pi): simplicial, so the common face is the cone
        # on the common rays (the origin when there are none)
        self.cone_shared = [(a, b, sorted(a & b))
                            for a, b in itertools.combinations(self.cones, 2)]
        # shared faces of Pi: cells meet only at common vertices
        self.cell_shared = []
        for a, b in itertools.combinations(self.cones, 2):
            common = sorted(a & b)
            verts = [r[:2] for r in common if r[2] == 1]
            if not verts:
                continue
            dirs = [tuple(x - y for x, y in zip(v, verts[0])) for v in verts[1:]]
            dirs += [r[:2] for r in common if r[2] == 0]
            self.cell_shared.append((a, b, dirs))
        # edges at each vertex: 2-cones of c(Pi) through its ray
        self.edges_at = {}
        for v in self.vertices:
            ray = v + (1,)
            self.edges_at[v] = len({frozenset((ray, r)) for c in cones if ray in c
                                    for r in c if r != ray})

    def cells(self):
        """(vertices, rays) of each maximal cell of Pi."""
        return [([r[:2] for r in c if r[2] == 1], [r[:2] for r in c if r[2] == 0])
                for c in self.cones]


def _cone_key(cone):
    return frozenset(_ints(r) for r in cone.rays)


def _cell_key(cell):
    return frozenset([_ints(v) + (1,) for v in cell.vertices]
                     + [_ints(r) + (0,) for r in cell.rays])


class P2Refine:
    name = "p2-refine"
    STEPS = (1, 3, 5, 7)       # models with 5, 9, 13 and 17 maximal cells
    DEGREES = (0, 1, 2)

    def setup(self, pp, seed):
        history = grow_p2(seed, max(self.STEPS))
        state = []
        for steps in self.STEPS:
            model = P2Model(history[steps])
            pc = pp.polyhedra.PolyComplex(
                2, [pp.polyhedra.Polyhedron(2, v, r) for v, r in model.cells()])
            if len(pc.maximal) != 3 + 2 * steps:
                raise RuntimeError(f"model after {steps} steps has {len(pc.maximal)} cells")
            if not (pc.is_complete() and pc.is_regular()):
                raise RuntimeError(f"model after {steps} steps is not complete and regular")
            fan = pp.polyhedra.cone_over(pc).fan
            if {_cone_key(c) for c in fan.max_cones()} != set(model.cones):
                raise RuntimeError("c(Pi) differs from the generated cones")
            state.append((model, pc))
        return state

    def round_ops(self, pp, state):
        return [Op(f"model_{len(model.cones)}_cells",
                   lambda pc=pc: self.operate(pp, pc),
                   lambda out, model=model: self.check(pp, model, out),
                   largest=i == len(state) - 1)
                for i, (model, pc) in enumerate(state)]

    def operate(self, pp, pc):
        """What ``ppchow basis``, ``ddc`` and ``refine`` do, on one model."""
        io, sf = pp.io, pp.specialfiber
        text = io.dump_json(io.complex_to_json(pc))
        pp.tracer.note_read(text)
        loaded = io.complex_from_json(json.loads(text))
        fan = pp.polyhedra.cone_over(loaded).fan
        cone_bases, affine_bases = {}, {}
        for k in self.DEGREES:
            cone_bases[k] = pp.ppfan.graded_basis(fan, k)
            affine_bases[k] = sf.dim_affine_pp(loaded, k)
        hp = sf.homology_presentation(loaded, 1)
        ddc = [sf.from_vertex_tuple(sf.ddc_model(t))
               for t in sf.vertex_layer_basis(loaded, 1)]
        report = io.dump_json({
            "pp_cone": [{"degree": k, "dimension": len(b),
                         "basis": [io.pp_to_json(f) for f in b]}
                        for k, b in cone_bases.items()],
            "affine": [{"degree": k, "dimension": d,
                        "basis": [io.affine_to_json(a) for a in b]}
                       for k, (d, b) in affine_bases.items()],
            "homology": {"degree": 1, "dimension": hp["dim"],
                         "basis": [io.vertex_tuple_to_json(c.tuple) for c in hp["basis"]]},
            "ddc": [io.affine_to_json(a) for a in ddc]})
        return {"complex": loaded, "fan": fan, "cone_bases": cone_bases,
                "affine_bases": affine_bases, "homology": hp, "ddc": ddc,
                "report": report}

    def check(self, pp, model, out):
        problems = []
        V = len(model.vertices)
        loaded, fan = out["complex"], out["fan"]
        cone_keys = [_cone_key(fan.cones[i]) for i in fan.maximal]
        cell_keys = {i: _cell_key(loaded.cells[i]) for i in loaded.maximal}
        if set(cone_keys) != set(model.cones) or set(cell_keys.values()) != set(model.cones):
            return ["loaded model differs from the generated one"]
        dims = {k: oracles.hilbert_disk_cone(V, N_BOUNDARY, k) for k in self.DEGREES}
        for k in self.DEGREES:
            basis = out["cone_bases"][k]
            if len(basis) != dims[k]:
                problems.append(f"dim PP^{k}(c(Pi)) = {len(basis)}, Hilbert series gives {dims[k]}")
            shared = [(a, b, common) for a, b, common in model.cone_shared
                      if common or k == 0]
            pieces_list = [dict(zip(cone_keys, (p.coeffs for p in f.pieces))) for f in basis]
            problems += _basis_problems(f"PP^{k}(c(Pi))", pieces_list, model.cones,
                                        shared, k, 3)

            dim, abasis = out["affine_bases"][k]
            expect = dims[k] - dims.get(k - 1, 0)
            if dim != expect or len(abasis) != expect:
                problems.append(f"dim affine PP^{k} = {dim} ({len(abasis)} elements), expected {expect}")
            pieces_list = [{cell_keys[i]: p.coeffs for i, p in a.cell_polys.items()}
                           for a in abasis]
            problems += _basis_problems(f"affine PP^{k}", pieces_list, model.cones,
                                        model.cell_shared, k, 2)

        hp = out["homology"]
        vertex_dim = sum(model.edges_at.values())
        gcols = [list(c) for c in pp.specialfiber.gamma_image_matrix(loaded, 1)]
        reps = [list(pp.specialfiber.flat_vertex(c.tuple)) for c in hp["basis"]]
        grank = oracles.rank_mod_p(gcols) if gcols else 0
        if hp["vertex_dim"] != vertex_dim:
            problems.append(f"vertex layer has {hp['vertex_dim']} elements, edges give {vertex_dim}")
        if grank != hp["gamma_rank"] or hp["dim"] != vertex_dim - grank or len(reps) != hp["dim"]:
            problems.append(f"homology: dim {hp['dim']}, {len(reps)} representatives, "
                            f"gamma rank {hp['gamma_rank']} (mod p {grank})")
        elif reps and oracles.rank_mod_p(gcols + reps) != grank + len(reps):
            problems.append("homology representatives are dependent modulo the gamma image")

        if len(out["ddc"]) != vertex_dim:
            problems.append(f"{len(out['ddc'])} dd^c outputs for {vertex_dim} basis tuples")
        for a in out["ddc"]:
            pieces = {cell_keys[i]: p.coeffs for i, p in a.cell_polys.items()}
            if a.degree != 2 or oracles.gluing_faults(pieces, model.cell_shared, 2, 2):
                problems.append("a dd^c output does not glue to an affine PP function")
                break

        report = json.loads(out["report"])
        if ([b["dimension"] for b in report["pp_cone"]] != [dims[k] for k in self.DEGREES]
                or len(report["ddc"]) != vertex_dim):
            problems.append("serialised report disagrees with the computed results")
        return problems


def _basis_problems(label, pieces_list, keys, shared, degree, dim):
    """Gluing of every element, then independence of the whole basis."""
    for pieces in pieces_list:
        bad = oracles.gluing_faults(pieces, shared, degree, dim)
        if bad:
            return [f"{label}: an element does not glue on {len(bad)} shared faces"]
    rows = [oracles.flatten([p[key] for key in keys], dim, degree) for p in pieces_list]
    if rows and oracles.rank_mod_p(rows) != len(rows):
        return [f"{label}: basis is linearly dependent"]
    return []


# ---------------------------------------------------------------------------
# p1-towers: rank-one chains from F1
# ---------------------------------------------------------------------------


def grow_p1(seed, length):
    """Vertex sets of a chain F1 <= ... of ``length`` models.

    Each step adds the lattice point next to the current interval on a
    seeded side, so consecutive vertices differ by one: every model is
    regular with reduced special fibre.
    """
    rng = random.Random(f"p1-towers:{seed}:{length}")
    lo = hi = 0
    models = [[0]]
    for _ in range(length - 1):
        if rng.random() < 0.5:
            lo -= 1
        else:
            hi += 1
        models.append(list(range(lo, hi + 1)))
    return models


class P1Towers:
    name = "p1-towers"
    LENGTHS = (3, 5, 8)
    # The multiplicity-2 fault: theta of the vertical cycle at vertex 0 on
    # chains through F6 (vertex 1/2 has multiplicity 2).
    FAULT_CHAINS = (("f6", ("f6_complex",)), ("f2_f6", ("f2_complex", "f6_complex")))

    def setup(self, pp, seed):
        specs = []
        for length in self.LENGTHS:
            vertex_sets = grow_p1(seed, length)
            rng = random.Random(f"p1-towers:{seed}:{length}:mixed")
            starts = sorted({0, (length - 1) // 2, length - 1})
            mixed = {s: rng.choice(vertex_sets[s]) for s in starts}
            specs.append((vertex_sets, starts, mixed))
        for vertex_sets, _, _ in specs:
            chain = self.build_chain(pp, vertex_sets)
            if not all(m.is_regular() for m in chain.models):
                raise RuntimeError("a chain model is not regular")
        for _, names in self.FAULT_CHAINS:
            pp.limits.ModelChain([getattr(pp.fixtures, n)() for n in names])
        return specs

    @staticmethod
    def build_chain(pp, vertex_sets):
        P = pp.polyhedra.Polyhedron
        models = []
        for vs in vertex_sets:
            cells = [P(1, [(vs[0],)], [(-1,)]), P(1, [(vs[-1],)], [(1,)])]
            cells += [P(1, [(a,), (b,)], []) for a, b in zip(vs, vs[1:])]
            models.append(pp.polyhedra.PolyComplex(1, cells))
        return pp.limits.ModelChain(models)

    def round_ops(self, pp, state):
        IC = pp.cycles.InvariantCycle
        ops = []
        longest = max(len(vs) for vs, _, _ in state)
        for vertex_sets, starts, mixed in state:
            chain = self.build_chain(pp, vertex_sets)
            length = len(chain)
            tag = f"len{length}"
            for s in (1, -1):
                eta = IC(1, 1, {((s,),): 1})
                ops.append(Op(f"{tag}_delta_degree{s:+d}",
                              lambda chain=chain, eta=eta: pp.limits.degree_current(
                                  pp.limits.delta_current(chain, eta)),
                              check_point_degree))
                ops.append(Op(f"{tag}_green{s:+d}",
                              lambda chain=chain, eta=eta: self.green(pp, chain, eta),
                              lambda out, chain=chain: check_green(chain, out),
                              largest=length == longest))
                for start in starts:
                    horizontal = IC(2, 1, {((s, 0),): 1})
                    mixed_cycle = IC(2, 1, {((s, 0),): 1, ((mixed[start], 1),): 2})
                    for kind, cyc in (("h", horizontal), ("m", mixed_cycle)):
                        ops.append(Op(f"{tag}_theta_{kind}{start}{s:+d}",
                                      lambda chain=chain, start=start, cyc=cyc:
                                          self.theta_round_trip(pp, chain, start, cyc),
                                      lambda out, chain=chain, start=start, cyc=cyc:
                                          check_theta(pp, chain, start, cyc, out)))
                ops.append(Op(f"{tag}_theta_prime{s:+d}",
                              lambda chain=chain, eta=eta: self.theta_prime_round_trip(pp, chain, eta),
                              lambda out, eta=eta: check_theta_prime(eta, out)))
                ops.append(Op(f"{tag}_poincare_lelong{s:+d}",
                              lambda chain=chain, s=s: pp.arithchow.poincare_lelong_check(
                                  chain, pp.polyhedra.Cone(1, []), (s,)),
                              lambda out, chain=chain: check_poincare_lelong(chain, out)))
        vertical = IC(2, 1, {((0, 1),): 1})
        for label, names in self.FAULT_CHAINS:
            chain = pp.limits.ModelChain([getattr(pp.fixtures, n)() for n in names])
            ops.append(Op(f"{label}_theta_multiplicity2",
                          lambda chain=chain: self.theta_round_trip(pp, chain, 0, vertical),
                          lambda out, chain=chain: check_theta(pp, chain, 0, vertical, out)))
        return ops

    @staticmethod
    def green(pp, chain, eta):
        lifting = pp.cycles.closure_class(chain.models[0], eta)
        g = pp.limits.green_from_lifting(chain, 0, lifting, eta)
        return pp.limits.is_green(g, eta)

    @staticmethod
    def theta_round_trip(pp, chain, start, cyc):
        return pp.arithchow.theta_inverse(pp.arithchow.theta(chain, start, cyc))

    @staticmethod
    def theta_prime_round_trip(pp, chain, eta):
        ac = pp.arithchow
        tower = ac.LimitTower(chain, {i: pp.cycles.closure_class(m, eta)
                                      for i, m in enumerate(chain.models)})
        x = ac.theta_prime(tower)
        return tower, x, ac.theta_prime_inverse(x)


def check_point_degree(deg):
    if deg.degree != 0 or deg.coeffs != {(0,): Fraction(1)}:
        return [f"delta current of a toric point has degree {deg!r}, not 1"]
    return []


def check_green(chain, cert):
    if cert is None:
        return ["is_green returned no certificate"]
    if cert.model is not chain.models[0]:
        return ["Green certificate is not on the lifting's model"]
    return []


def check_theta(pp, chain, start, cyc, limit_class):
    pc = chain.models[start]
    expected = pp.cycles.model_cycle_class(pc, cyc)
    if limit_class.model is not pc or limit_class.pp.pieces != expected.pieces:
        return [f"theta round trip at start {start} does not return {cyc!r}"]
    return []


def check_theta_prime(eta, out):
    tower, x, back = out
    if x.eta != eta:
        return ["theta' of the closure tower has the wrong cycle"]
    if not all(x.green.value(i).is_zero() for i in x.green.indices()):
        return ["theta' of the closure tower has a nonzero current"]
    if not all(back.value(i) == tower.value(i) for i in tower.indices()):
        return ["theta' round trip does not return the tower"]
    return []


def check_poincare_lelong(chain, report):
    models = report["models"]
    if (report["all_equal"] is not True or len(models) != len(chain)
            or not all(m["equal"] is True for m in models)):
        return ["Poincare-Lelong fails on a chain model"]
    return []


WORKLOADS = {w.name: w for w in (Suite(), P2Refine(), P1Towers())}
