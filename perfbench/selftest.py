"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

They check that the input generators are deterministic and yield complete,
regular models, that each checker rejects a corrupted output, that a quick
run of each workload exits cleanly and that a traced run reports every
per-layer metric.  The file is not named test_*.py because the runs take
about two minutes; the repository's test suite does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def pp():
    return run.import_program()


def _bump(poly, pp):
    """The same polynomial with one coefficient changed."""
    coeffs = dict(poly.coeffs)
    expo = next(iter(coeffs), (poly.degree,) + (0,) * (poly.dim - 1))
    coeffs[expo] = coeffs.get(expo, 0) + 1
    return pp.polyring.HomogPoly(poly.dim, poly.degree, coeffs)


# -- generators ----------------------------------------------------------------


def test_p2_generator_is_deterministic_and_regular(pp):
    assert wl.grow_p2(5, 7) == wl.grow_p2(5, 7)
    assert wl.grow_p2(5, 7) != wl.grow_p2(6, 7)
    state = wl.P2Refine().setup(pp, 5)
    for (model, pc), steps in zip(state, wl.P2Refine.STEPS):
        assert len(pc.maximal) == 3 + 2 * steps
        assert pc.is_complete() and pc.is_regular()
        assert all(pp.polyhedra.vertex_chart(pc, v).fan.is_regular() for v in pc.vertices)


def test_p1_generator_is_deterministic_and_regular(pp):
    assert wl.grow_p1(3, 8) == wl.grow_p1(3, 8)
    for vertex_sets in (wl.grow_p1(s, 8) for s in range(4)):
        assert [len(vs) for vs in vertex_sets] == list(range(1, 9))
        assert all(b - a == 1 for vs in vertex_sets for a, b in zip(vs, vs[1:]))
        chain = wl.P1Towers.build_chain(pp, vertex_sets)
        assert all(m.is_complete() and m.is_regular() for m in chain.models)


# -- checkers ------------------------------------------------------------------


@pytest.fixture(scope="module")
def p2_case(pp):
    workload = wl.P2Refine()
    model, pc = workload.setup(pp, 1)[1]
    out = workload.operate(pp, pc)
    assert workload.check(pp, model, out) == []
    return workload, model, out


def _p2_rejects(pp, p2_case, mutate):
    workload, model, out = p2_case
    bad = dict(out)
    mutate(bad)
    assert workload.check(pp, model, bad) != []


def test_p2_rejects_changed_cone_coefficient(pp, p2_case):
    def mutate(out):
        basis = list(out["cone_bases"][2])
        f = basis[3]
        pieces = list(f.pieces)
        pieces[0] = _bump(pieces[0], pp)
        basis[3] = pp.ppfan.PPFunction(f.fan, f.degree, pieces, validate=False)
        out["cone_bases"] = {**out["cone_bases"], 2: basis}
    _p2_rejects(pp, p2_case, mutate)


def test_p2_rejects_cone_dimension_off_by_one(pp, p2_case):
    def mutate(out):
        out["cone_bases"] = {**out["cone_bases"], 1: out["cone_bases"][1][:-1]}
    _p2_rejects(pp, p2_case, mutate)


def test_p2_rejects_changed_affine_coefficient(pp, p2_case):
    def mutate(out):
        dim, basis = out["affine_bases"][1]
        a = basis[-1]
        first = next(iter(a.cell_polys))
        polys = {**a.cell_polys, first: _bump(a.cell_polys[first], pp)}
        basis = basis[:-1] + [pp.specialfiber.AffinePP(a.complex, a.degree, polys,
                                                       validate=False)]
        out["affine_bases"] = {**out["affine_bases"], 1: (dim, basis)}
    _p2_rejects(pp, p2_case, mutate)


def test_p2_rejects_affine_dimension_off_by_one(pp, p2_case):
    def mutate(out):
        dim, basis = out["affine_bases"][2]
        out["affine_bases"] = {**out["affine_bases"], 2: (dim + 1, basis)}
    _p2_rejects(pp, p2_case, mutate)


def test_p2_rejects_dependent_homology_representatives(pp, p2_case):
    def mutate(out):
        hp = dict(out["homology"])
        hp["basis"] = hp["basis"][:-1] + hp["basis"][:1]
        out["homology"] = hp
    _p2_rejects(pp, p2_case, mutate)


def test_p2_rejects_changed_ddc_coefficient(pp, p2_case):
    def mutate(out):
        ddc = list(out["ddc"])
        idx = next(i for i, a in enumerate(ddc) if not a.is_zero())
        a = ddc[idx]
        cell = next(i for i, p in a.cell_polys.items() if not p.is_zero())
        polys = {**a.cell_polys, cell: _bump(a.cell_polys[cell], pp)}
        ddc[idx] = pp.specialfiber.AffinePP(a.complex, a.degree, polys, validate=False)
        out["ddc"] = ddc
    _p2_rejects(pp, p2_case, mutate)


def test_p1_checkers_reject_corrupted_outputs(pp):
    workload = wl.P1Towers()
    state = workload.setup(pp, 2)
    chain = workload.build_chain(pp, state[0][0])
    IC = pp.cycles.InvariantCycle
    eta = IC(1, 1, {((1,),): 1})

    deg = pp.limits.degree_current(pp.limits.delta_current(chain, eta))
    assert wl.check_point_degree(deg) == []
    assert wl.check_point_degree(deg.scale(2)) != []

    cert = workload.green(pp, chain, eta)
    assert wl.check_green(chain, cert) == []
    assert wl.check_green(chain, None) != []

    cyc = IC(2, 1, {((1, 0),): 1, ((0, 1),): 2})
    back = workload.theta_round_trip(pp, chain, 0, cyc)
    assert wl.check_theta(pp, chain, 0, cyc, back) == []
    pieces = list(back.pp.pieces)
    pieces[0] = _bump(pieces[0], pp)
    back.pp = pp.ppfan.PPFunction(back.pp.fan, back.pp.degree, pieces, validate=False)
    assert wl.check_theta(pp, chain, 0, cyc, back) != []

    out = workload.theta_prime_round_trip(pp, chain, eta)
    assert wl.check_theta_prime(eta, out) == []
    assert wl.check_theta_prime(IC(1, 1, {((-1,),): 1}), out) != []

    report = pp.arithchow.poincare_lelong_check(chain, pp.polyhedra.Cone(1, []), (1,))
    assert wl.check_poincare_lelong(chain, report) == []
    report["models"][-1]["equal"] = False
    assert wl.check_poincare_lelong(chain, report) != []


def test_suite_checker_rejects_failed_criterion(pp):
    result = pp.checks.criterion_4()
    assert wl.check_criterion(result) == []
    result.passed = False
    assert wl.check_criterion(result) != []


def test_oracle_dimensions_match_direct_counts():
    from oracles import hilbert_disk_cone
    # F3C: V = 1, b = 3, so PP^k(c(Pi)) of the P^2 fan's cone has 1, 4, 10 ...
    assert [hilbert_disk_cone(1, 3, k) for k in range(3)] == [1, 4, 10]
    # PP^1 of a simplicial fan is spanned by one generator per ray
    assert hilbert_disk_cone(9, 3, 1) == 12


def test_benchmark_json_names_what_the_runner_prints():
    import layertrace
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == ["suite", "p2-refine", "p1-towers"]
    assert set(w["name"] for w in spec["workloads"]) == set(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layertrace.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# -- quick runs ----------------------------------------------------------------


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_quick_run_exits_cleanly(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected_failed = 2 if workload == "p1-towers" else 0
    assert result["failed"] == expected_failed
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    import layertrace
    proc = _run(["--workload", "p1-towers", "--seed", "3", "--seconds", "1", "--trace", "1"],
                ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 2
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(layertrace.PER_LAYER)
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert result["metrics"]["limits.tower_values"]["value"] > 0


def test_run_without_program_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "suite", "--seed", "0", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

