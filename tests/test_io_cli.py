import json
import os
import pathlib
from fractions import Fraction as Q

import pytest

import route_oracle
from ppchow import io as pio
from ppchow.cli import main
from ppchow.cycles import InvariantCycle
from ppchow.errors import InputError
from ppchow.fixtures import f1_complex, f2_complex, f5_complex
from ppchow.polyhedra import cone_over, vertex_chart
from ppchow.polyring import HomogPoly
from ppchow.ppfan import constant_pp, phi_ray
from ppchow.specialfiber import AffinePP, VertexTuple


def test_complex_round_trip():
    for pc in (f2_complex(), f5_complex()):
        data = pio.complex_to_json(pc)
        back = pio.complex_from_json(json.loads(json.dumps(data)))
        assert back.same_as(pc)


def test_poly_and_pp_round_trip():
    p = HomogPoly(2, 2, {(2, 0): Q(1, 2), (1, 1): -3})
    assert pio.poly_from_json(pio.poly_to_json(p), 2) == p
    F2 = f2_complex()
    fan = cone_over(F2).fan
    f = phi_ray(fan, (0, 1))
    assert pio.pp_from_json(pio.pp_to_json(f), fan) == f


def test_affine_tuple_cycle_round_trip():
    F2 = f2_complex()
    x = HomogPoly.linear_form((1,))
    a = AffinePP(F2, 1, [x, x, x])
    assert pio.affine_from_json(pio.affine_to_json(a), F2) == a
    t = VertexTuple(F2, 0, {(Q(0),): constant_pp(vertex_chart(F2, (Q(0),)).fan, 1)})
    assert pio.vertex_tuple_from_json(pio.vertex_tuple_to_json(t), F2) == t
    z = InvariantCycle(1, 1, {((Q(1),),): Q(3, 2)})
    assert pio.cycle_from_json(route_oracle.cycle_to_json(z), 1) == z


@pytest.fixture
def workdir(tmp_path):
    paths = {}
    for name, pc in (("f1", f1_complex()), ("f2", f2_complex()), ("f5", f5_complex())):
        p = tmp_path / f"{name}.json"
        pio.dump_json(pio.complex_to_json(pc), str(p))
        paths[name] = str(p)
    chain = tmp_path / "chain.json"
    pio.dump_json({"models": [{"complex": paths["f1"]},
                              {"complex": paths["f2"]},
                              {"complex": paths["f5"]}]}, str(chain))
    paths["chain"] = str(chain)
    cyc = tmp_path / "plus.json"
    pio.dump_json(route_oracle.cycle_to_json(InvariantCycle(1, 1, {((Q(1),),): 1})), str(cyc))
    paths["cycle"] = str(cyc)
    paths["tmp"] = tmp_path
    return paths


def test_cli_validate(workdir, capsys):
    assert main(["validate", workdir["f2"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["files"][0]["complete"] and report["files"][0]["regular"]
    bad = workdir["tmp"] / "bad.json"
    bad.write_text(json.dumps({"rank": 1, "points": [["0"], ["1"], ["1/2"], ["2"]],
                               "cells": [{"vertices": [0, 1]},
                                         {"vertices": [2, 3]}]}))
    assert main(["validate", str(bad)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert "NotAComplex" in out["files"][0]["error"]
    # a piecewise file failing a face reports the witness pair
    badpp = workdir["tmp"] / "badpp.json"
    badpp.write_text(json.dumps({
        "complex": workdir["f2"], "degree": 0,
        "cells": [{"cell": 0, "poly": {"degree": 0, "coeffs": {"0": "1"}}},
                  {"cell": 1, "poly": {"degree": 0, "coeffs": {"0": "2"}}},
                  {"cell": 2, "poly": {"degree": 0, "coeffs": {"0": "1"}}}]}))
    assert main(["validate", str(badpp)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["files"][0]["error"] == (
        "FacetMismatch: cells 2 and 3 disagree on the direction space of "
        "Polyhedron(V=[(Fraction(0, 1),)], R=[])")
    # a PP file on c(F2) whose pieces x_2 and x_1 disagree on the ray (0, 1)
    badcone = workdir["tmp"] / "badcone.json"
    badcone.write_text(json.dumps({
        "complex": workdir["f2"], "degree": 1,
        "pieces": [{"cone": 0, "poly": {"degree": 1, "coeffs": {"0,1": "1"}}},
                   {"cone": 1, "poly": {"degree": 1, "coeffs": {"1,0": "1"}}}]}))
    assert main(["validate", str(badcone)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["files"][0]["error"] == (
        "FaceMismatch: pieces on cones 0 and 1 disagree on their common face "
        "Cone([(Fraction(0, 1), Fraction(1, 1))])")
    # an affine and a PP file with a constant piece in a degree-1 function
    # report one error
    for key, place, expo in (("cells", "cell", "0"), ("pieces", "cone", "0,0")):
        wrong = workdir["tmp"] / f"wrong_degree_{key}.json"
        wrong.write_text(json.dumps({
            "complex": workdir["f2"], "degree": 1,
            key: [{place: 1, "poly": {"degree": 0, "coeffs": {expo: "1"}}}]}))
        assert main(["validate", str(wrong)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["files"][0]["error"] == (
            "DegreeMismatch: piece of degree 0 in a degree-1 function")


@pytest.mark.parametrize("data", [5, "cells rank", None, [1, 2]])
def test_cli_validate_json_that_is_not_an_object(workdir, capsys, data):
    path = workdir["tmp"] / "scalar.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    entry = json.loads(capsys.readouterr().out)["files"][0]
    assert entry["kind"] is None and not entry["valid"]
    assert entry["error"] == "InputError: unrecognized file kind"


def test_cli_basis(workdir, capsys):
    assert main(["basis", "--complex", workdir["f2"], "--degree", "1",
                 "--which", "affine"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 3
    assert main(["basis", "--complex", workdir["f2"], "--degree", "1",
                 "--which", "pp-cone"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 4
    assert main(["basis", "--complex", workdir["f2"], "--degree", "0",
                 "--which", "homology"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2


def test_cli_ddc_golden(workdir, capsys):
    tuple_file = workdir["tmp"] / "v0.json"
    data = {"degree": 0,
            "vertices": [{"vertex": ["0"],
                          "pp": {"degree": 0,
                                 "pieces": [{"cone": 0, "poly": {"degree": 0, "coeffs": {"0": "1"}}},
                                            {"cone": 1, "poly": {"degree": 0, "coeffs": {"0": "1"}}}]}}]}
    tuple_file.write_text(json.dumps(data))
    assert main(["ddc", "--complex", workdir["f2"], "--tuple", str(tuple_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    # dd^c of the component class [V(0)]: -x on the bounded cell, 0 elsewhere
    assert out == {"degree": 1,
                   "cells": [{"cell": 1, "poly": {"degree": 1, "coeffs": {"1": "-1"}}}]}
    # determinism: a second run produces the identical report
    main(["ddc", "--complex", workdir["f2"], "--tuple", str(tuple_file)])
    assert json.loads(capsys.readouterr().out) == out


def test_cli_delta_green_degree(workdir, capsys):
    assert main(["delta", "--chain", workdir["chain"], "--cycle",
                 workdir["cycle"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stabilizes_at"] == 1
    assert main(["green", "--chain", workdir["chain"], "--cycle",
                 workdir["cycle"], "--start", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["green_certificate"] is not None
    assert main(["degree", "--chain", workdir["chain"], "--cycle",
                 workdir["cycle"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == {"degree": 0, "coeffs": {"0": "1"}}


def test_cli_push_and_refine(workdir, capsys):
    aff = workdir["tmp"] / "aff.json"
    aff.write_text(json.dumps({
        "degree": 1,
        "cells": [{"cell": 2, "poly": {"degree": 1, "coeffs": {"1": "1"}}},
                  {"cell": 3, "poly": {"degree": 1, "coeffs": {"1": "1"}}}]}))
    assert main(["push", "--source", workdir["f5"], "--target", workdir["f2"],
                 "--affine", str(aff)]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["refine", "--complex", workdir["f2"], "--point", "-1"]) == 0
    refined = pio.complex_from_json(json.loads(capsys.readouterr().out))
    assert refined.same_as(f5_complex())


def test_cli_check_core(capsys):
    assert main(["check", "--suite", "core", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_cli_input_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["delta", "--chain", missing, "--cycle", missing]) == 2


@pytest.mark.parametrize("chain", [
    {"chain": []},                              # no "models" key
    {"models": [{"path": "f1.json"}]},          # a model with no "complex"
    {"models": {"complex": "f1.json"}},         # "models" is not a list
    {"models": "f1.json"},
    {"models": []},
    ["models"],
    {"models": [{"complex": 5}]},               # a model "complex" that is not a path
    {"models": [{"complex": ["f1.json"]}]},
])
def test_cli_malformed_chain_is_input_error(workdir, capsys, chain):
    path = workdir["tmp"] / "badchain.json"
    path.write_text(json.dumps(chain))
    for cmd in ("delta", "green", "degree"):
        assert main([cmd, "--chain", str(path), "--cycle", workdir["cycle"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["input_error"].startswith("InputError: ")


def test_cli_check_has_no_depth_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "core", "--depth", "3"])
    assert exc.value.code == 2
    assert "--depth" in capsys.readouterr().err


@pytest.mark.parametrize("cycle", [
    {"terms": [{"cone": [["1"]], "coeff": "1"}]},               # no "codim"
    {"codim": 1, "terms": [{"cone": [["1"]]}]},                 # a term with no "coeff"
    {"codim": 1, "terms": [{"coeff": "1"}]},                    # a term with no "cone"
    {"codim": "one", "terms": []},
    {"codim": 1, "terms": [{"cone": [["1"], ["1", "0"]], "coeff": "1"}]},
    {"codim": 1, "terms": [{"cone": [["0"]], "coeff": "1"}]},
    {"codim": 1, "terms": [{"cone": [["1"]], "coeff": "x"}]},
    ["codim"],
    {"codim": 1.7, "terms": [{"cone": [["1"]], "coeff": "1"}]},  # not truncated to 1
    {"codim": True, "terms": [{"cone": [["1"]], "coeff": "1"}]},
    {"codim": 2, "terms": [{"cone": [["1"]], "coeff": "1"}]},  # a term with one ray
    {"codim": 1, "terms": [{"cone": [["1"]], "coeff": True}]},  # a bool is no rational
    {"codim": 1, "terms": [{"cone": [[True]], "coeff": "1"}]},
    # a zero denominator is malformed input, not a crash
    {"codim": 1, "terms": [{"cone": [["1"]], "coeff": "1/0"}]},
    {"codim": 1, "terms": [{"cone": [["1/0"]], "coeff": "1"}]},
])
def test_cli_malformed_cycle_is_input_error(workdir, capsys, cycle):
    path = workdir["tmp"] / "badcycle.json"
    path.write_text(json.dumps(cycle))
    for cmd in ("delta", "green", "degree", "validate"):
        if cmd == "validate":
            # validate lists every file with its error instead of stopping
            assert main([cmd, str(path)]) == 2
            captured = capsys.readouterr()
            error = json.loads(captured.out)["files"][0]["error"]
            # a file without "codim", or not an object, is not seen as a cycle
            if isinstance(cycle, dict) and "codim" in cycle:
                assert error.startswith("InputError: malformed cycle file")
            else:
                assert error == "InputError: unrecognized file kind"
            continue
        assert main([cmd, "--chain", workdir["chain"], "--cycle", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["input_error"].startswith("InputError: malformed cycle file")


_ONE = {"degree": 0, "coeffs": {"0": "1"}}
_X = {"degree": 1, "coeffs": {"1": "1"}}


@pytest.mark.parametrize("command, data", [
    ("push", {"cells": []}),                                    # no "degree"
    ("push", {"degree": 0, "cells": [{"poly": _ONE}]}),         # a cell with no index
    ("push", {"degree": 0, "cells": [{"cell": 9, "poly": _ONE}]}),
    ("push", {"degree": 0, "cells": [{"cell": 0, "poly": {"degree": 0, "coeffs": {"0,1": "1"}}}]}),
    ("ddc", {"degree": 0, "vertices": [{"pp": {"degree": 0, "pieces": []}}]}),
    ("ddc", {"degree": 0, "vertices": [{"vertex": ["0"], "pp": {"pieces": []}}]}),
    ("ddc", {"degree": 0, "vertices": [{"vertex": ["0"],
                                        "pp": {"degree": 0, "pieces": [{"cone": 5, "poly": _ONE}]}}]}),
    ("degree", {"degree": 0, "pieces": [{"cone": 0}]}),        # a piece with no "poly"
    ("degree", {"degree": 0, "pieces": [{"cone": 0, "poly": {"coeffs": {"0,0": "1"}}}]}),
    # indices are JSON integers in range, not truncated or counted from the end
    ("push", {"degree": 1, "cells": [{"cell": 2, "poly": _X}, {"cell": -1, "poly": _X}]}),
    ("push", {"degree": 1, "cells": [{"cell": 2.9, "poly": _X}, {"cell": 3, "poly": _X}]}),
    ("push", {"degree": 1.0, "cells": [{"cell": 2, "poly": _X}, {"cell": 3, "poly": _X}]}),
    ("ddc", {"degree": 0, "vertices": [{"vertex": ["0"],
                                        "pp": {"degree": 0, "pieces": [{"cone": 0, "poly": _ONE},
                                                                       {"cone": -1, "poly": _ONE}]}}]}),
    # coefficients are not bools, and exponent keys are ASCII digits only
    ("push", {"degree": 1, "cells": [{"cell": c, "poly": {"degree": 1, "coeffs": {"1": True}}}
                                     for c in (2, 3)]}),
    ("push", {"degree": 1, "cells": [{"cell": c, "poly": {"degree": 1, "coeffs": {" 1": "1"}}}
                                     for c in (2, 3)]}),
    ("degree", {"degree": 10, "pieces": [{"cone": c, "poly": {"degree": 10, "coeffs": {"1_0,0": "1"}}}
                                         for c in range(3)]}),
    # a degree past io.MAX_DEGREE (20) is refused before any basis is enumerated
    ("push", {"degree": 21, "cells": []}),
])
def test_cli_malformed_piecewise_is_input_error(workdir, capsys, command, data):
    path = workdir["tmp"] / "badpiecewise.json"
    path.write_text(json.dumps(data))
    argv = {"push": ["push", "--source", workdir["f5"], "--target", workdir["f2"],
                     "--affine", str(path)],
            "ddc": ["ddc", "--complex", workdir["f2"], "--tuple", str(path)],
            "degree": ["degree", "--complex", workdir["f2"], "--pp", str(path)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["input_error"].startswith("InputError: malformed ")


@pytest.mark.parametrize("change, message", [
    ({"rank": 1.5}, "rank must be a nonnegative integer, got 1.5"),
    ({"rank": True}, "rank must be a nonnegative integer, got true"),
    ({"rank": -1}, "rank must be a nonnegative integer, got -1"),
    ({"cells": [{"vertices": [0, -1]}]}, "vertex must be an index in [0, 2), got -1"),
    ({"cells": [{"vertices": [0, 1.0]}]}, "vertex must be an index in [0, 2), got 1.0"),
    # generators of the wrong length are named, with their length and the rank
    ({"points": [["0", "0"], ["1"]]}, "vertex (0, 0) has length 2 but dim_ambient is 1"),
    ({"rank": 2, "points": [["0", "0"], ["1", "0"]],
      "cells": [{"vertices": [0, 1], "rays": [["1"]]}]},
     "ray (1) has length 1 but dim_ambient is 2"),
    # a zero denominator in a point or a ray
    ({"points": [["1/0"], ["1"]]}, "Fraction(1, 0)"),
    ({"cells": [{"vertices": [0], "rays": [["1/0"]]}, {"vertices": [0, 1]}]},
     "Fraction(1, 0)"),
])
def test_cli_malformed_complex_is_input_error(workdir, capsys, change, message):
    data = {"rank": 1, "points": [["0"], ["1"]], "cells": [{"vertices": [0, 1]}]}
    path = workdir["tmp"] / "badcomplex.json"
    path.write_text(json.dumps({**data, **change}))
    assert main(["validate", str(path)]) == 2
    entry = json.loads(capsys.readouterr().out)["files"][0]
    assert entry["kind"] == "complex" and not entry["valid"]
    assert entry["error"] == f"InputError: malformed complex file: {message}"
    assert main(["basis", "--complex", str(path), "--degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["input_error"].endswith(message)


def test_chain_model_paths_resolve_against_the_chain_file(monkeypatch, capsys, tmp_path):
    data = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data"
    runs = [(data.parents[1], "demos/data/p1_chain.json", "demos/data/point_cycle.json"),
            (data.parent, "data/p1_chain.json", "data/point_cycle.json"),
            (tmp_path, str(data / "p1_chain.json"), str(data / "point_cycle.json"))]
    outputs = []
    for cwd, chain, cycle in runs:
        monkeypatch.chdir(cwd)
        assert main(["delta", "--chain", chain, "--cycle", cycle]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["stabilizes_at"] == 1


def test_validate_reads_the_complex_reference_against_the_file(monkeypatch, capsys, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    pio.dump_json(pio.complex_to_json(f2_complex()), str(data / "f2.json"))
    (data / "zero.json").write_text(json.dumps({"complex": "f2.json", "degree": 0, "cells": []}))
    for cwd, path in ((data, "zero.json"), (tmp_path, "data/zero.json"),
                      (tmp_path.parent, str(data / "zero.json"))):
        monkeypatch.chdir(cwd)
        assert main(["validate", path]) == 0
        entry = json.loads(capsys.readouterr().out)["files"][0]
        assert entry["kind"] == "affine" and entry["valid"] is True


def test_vertex_tuple_entry_of_another_degree_is_input_error(workdir, capsys):
    # a degree-1 file whose one entry is the degree-0 constant 1 at vertex 0
    path = workdir["tmp"] / "mixed.json"
    path.write_text(json.dumps({
        "complex": workdir["f2"], "degree": 1,
        "vertices": [{"vertex": ["0"],
                      "pp": {"degree": 0, "pieces": [{"cone": 0, "poly": _ONE},
                                                     {"cone": 1, "poly": _ONE}]}}]}))
    with pytest.raises(InputError, match=r"vertex \(0\) has degree 0, not the file's degree 1"):
        pio.vertex_tuple_from_json(json.loads(path.read_text()), f2_complex())
    assert main(["validate", str(path)]) == 2
    entry = json.loads(capsys.readouterr().out)["files"][0]
    assert entry["kind"] == "vertex_tuple" and entry["valid"] is False
    assert entry["error"] == ("DegreeMismatch: the entry at vertex (0) has degree 0, "
                              "not the file's degree 1")
    assert main(["ddc", "--complex", workdir["f2"], "--tuple", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["input_error"] == entry["error"]


def test_validate_checks_a_chain_as_a_chain(monkeypatch, capsys, tmp_path):
    data = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data"
    # model paths resolve against the chain file, from any working directory
    for cwd, path in ((data.parents[1], "demos/data/p1_chain.json"),
                      (tmp_path, str(data / "p1_chain.json"))):
        monkeypatch.chdir(cwd)
        assert main(["validate", path]) == 0
        entry = json.loads(capsys.readouterr().out)["files"][0]
        assert entry == {"path": path, "kind": "tower", "models": 3, "valid": True}
    # F2 does not refine F5, so the pair (F5, F2) is no chain
    backwards = tmp_path / "backwards.json"
    backwards.write_text(json.dumps({"models": [{"complex": str(data / "f5_complex.json")},
                                                {"complex": str(data / "f2_complex.json")}]}))
    assert main(["validate", str(backwards), str(data / "p1_chain.json")]) == 2
    first, second = json.loads(capsys.readouterr().out)["files"]
    assert first["kind"] == "tower" and first["valid"] is False
    assert first["error"].startswith("NotARefinement: ")
    assert second["valid"] is True


@pytest.mark.parametrize("data, kind, got", [
    ({"complex": 5, "degree": 0, "pieces": []}, "pp", "5"),
    ({"complex": ["a"], "degree": 0, "cells": []}, "affine", '["a"]'),
    ({"models": [{"complex": 5}]}, "tower", "5"),
])
def test_validate_refuses_a_reference_that_is_not_a_path(tmp_path, capsys, data, kind, got):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    entry = json.loads(capsys.readouterr().out)["files"][0]
    assert entry["kind"] == kind and not entry["valid"]
    assert entry["error"] == f"InputError: malformed {kind} file: 'complex' must be a path, got {got}"


@pytest.mark.parametrize("argv, message", [
    # F2 has rank 1: the point (1, 2) is not read as x = 1/2 at height 2
    (["refine", "--complex", "{f2}", "--point", "1,2"], "has 2 coordinates, the complex needs 1"),
    (["refine", "--complex", "{f2}", "--point", "x"], "--point needs comma-separated rationals"),
    (["refine", "--complex", "{f2}", "--point", "1/0"], "--point needs comma-separated rationals"),
    (["green", "--chain", "{chain}", "--cycle", "{cycle}", "--start", "5"], "chain position 5"),
    (["green", "--chain", "{chain}", "--cycle", "{cycle}", "--start", "-1"], "chain position -1"),
    (["delta", "--chain", "{chain}", "--cycle", "{wide}"], "malformed cycle file"),
    (["green", "--chain", "{chain}", "--cycle", "{wide}"], "malformed cycle file"),
    (["degree", "--chain", "{chain}", "--cycle", "{wide}"], "malformed cycle file"),
    (["degree", "--depth", "2"], "degree needs --chain and --cycle, or --complex and --pp"),
    (["delta", "--chain", "{chain}", "--cycle", "{cycle}", "--depth", "-3"],
     "depth must be at least 1, got -3"),
    (["green", "--chain", "{chain}", "--cycle", "{cycle}", "--depth", "0"],
     "depth must be at least 1, got 0"),
    (["degree", "--chain", "{chain}", "--cycle", "{cycle}", "--depth", "-1"],
     "depth must be at least 1, got -1"),
    (["basis", "--complex", "{f2}", "--degree", "21", "--which", "pp-cone"],
     "degree 21 is past the limit MAX_DEGREE = 20"),
    (["basis", "--complex", "{f2}", "--degree", "-1", "--which", "pp-cone"],
     "degree must be a nonnegative integer, got -1"),
    # every file flag refuses a file whose keys give it another kind
    (["basis", "--complex", "{cycle}", "--degree", "0"],
     "InputError: malformed complex file: by its keys it is of kind cycle"),
    (["refine", "--complex", "{chain}", "--point", "1"],
     "InputError: malformed complex file: by its keys it is of kind tower"),
    (["ddc", "--complex", "{f2}", "--tuple", "{f5}"],
     "InputError: malformed vertex_tuple file: by its keys it is of kind complex"),
    (["push", "--source", "{cycle}", "--target", "{f2}", "--affine", "{f5}"],
     "InputError: malformed complex file: by its keys it is of kind cycle"),
    (["push", "--source", "{f5}", "--target", "{chain}", "--affine", "{f5}"],
     "InputError: malformed complex file: by its keys it is of kind tower"),
    (["push", "--source", "{f5}", "--target", "{f2}", "--affine", "{cycle}"],
     "InputError: malformed affine file: by its keys it is of kind cycle"),
    (["degree", "--complex", "{f2}", "--pp", "{wide}"],
     "InputError: malformed pp file: by its keys it is of kind cycle"),
    (["delta", "--chain", "{f1}", "--cycle", "{cycle}"],
     "InputError: malformed tower file: by its keys it is of kind complex"),
    (["green", "--chain", "{chain}", "--cycle", "{f2}"],
     "InputError: malformed cycle file: by its keys it is of kind complex"),
    (["degree", "--chain", "{chain}", "--cycle", "{chain}"],
     "InputError: malformed cycle file: by its keys it is of kind tower"),
    # a piecewise file whose "complex" names another model than the command's
    (["ddc", "--complex", "{f2}", "--tuple", "{tuple_on_f5}"],
     "InputError: malformed vertex_tuple file: it names the complex {f5}, "
     "not the one the command reads"),
    (["push", "--source", "{f5}", "--target", "{f2}", "--affine", "{affine_on_f2}"],
     "InputError: malformed affine file: it names the complex {f2}, "
     "not the one the command reads"),
    (["degree", "--complex", "{f2}", "--pp", "{pp_on_f1}"],
     "InputError: malformed pp file: it names the complex {f1}, not the one the command reads"),
])
def test_cli_bad_arguments_exit_2(workdir, capsys, argv, message):
    wide = workdir["tmp"] / "wide.json"    # a cycle with rays of length 2 on a rank-1 chain
    wide.write_text(json.dumps({"codim": 1, "terms": [{"cone": [["1", "0"]], "coeff": "1"}]}))
    named = {"wide": wide}
    for name, on, key in (("tuple_on_f5", "f5", "vertices"), ("affine_on_f2", "f2", "cells"),
                          ("pp_on_f1", "f1", "pieces")):
        named[name] = workdir["tmp"] / f"{name}.json"
        named[name].write_text(json.dumps({"complex": workdir[on], "degree": 0, key: []}))
    assert main([a.format(**named, **workdir) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["input_error"]
    assert error.startswith("InputError: ") and message.format(**workdir) in error


def test_a_file_naming_the_command_model_is_read_on_it(workdir, capsys):
    """A piecewise file that names the command's complex, by another path or
    as a copy of the same model, or names none, is read on it; one that
    names a file that is missing is refused."""
    copy = workdir["tmp"] / "copy_of_f2.json"
    copy.write_text(pathlib.Path(workdir["f2"]).read_text())
    outputs = []
    for ref in (workdir["f2"], "f2.json", str(copy), None):
        path = workdir["tmp"] / "zero_tuple.json"
        path.write_text(json.dumps({"degree": 0, "vertices": []} if ref is None else
                                   {"complex": ref, "degree": 0, "vertices": []}))
        assert main(["ddc", "--complex", workdir["f2"], "--tuple", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    path.write_text(json.dumps({"complex": "missing.json", "degree": 0, "vertices": []}))
    assert main(["ddc", "--complex", workdir["f2"], "--tuple", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["input_error"].startswith("FileNotFoundError: ")


def test_each_file_is_parsed_once_per_command(workdir, capsys, monkeypatch):
    """validate parses each file it is given once, and reads a complex that
    several files name once; so does a command whose complex a file names."""
    files = []
    for name, key in (("affine_zero", "cells"), ("tuple_zero", "vertices")):
        files.append(workdir["tmp"] / f"{name}.json")
        files[-1].write_text(json.dumps({"complex": workdir["f2"], "degree": 0, key: []}))
    chain = workdir["tmp"] / "chain_f1_f2.json"
    chain.write_text(json.dumps({"models": [{"complex": workdir["f1"]},
                                            {"complex": workdir["f2"]}]}))
    parsed, load = [], pio.load_json
    monkeypatch.setattr(pio, "load_json", lambda path: parsed.append(path) or load(path))
    for argv in (["validate", workdir["f2"], *map(str, files), str(chain)],
                 ["validate", *map(str, files), str(chain), workdir["f2"], workdir["f1"]],
                 ["ddc", "--complex", workdir["f2"], "--tuple", str(files[1])]):
        parsed.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(parsed) == len(set(map(os.path.realpath, parsed)))
