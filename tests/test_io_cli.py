import json
import pathlib
from fractions import Fraction as Q

import pytest

from ppchow import io as pio
from ppchow.cli import main
from ppchow.cycles import InvariantCycle
from ppchow.errors import InputError
from ppchow.fixtures import f1_complex, f2_complex, f5_complex
from ppchow.polyhedra import cone_over, vertex_chart
from ppchow.polyring import HomogPoly
from ppchow.ppfan import constant_pp, phi_ray
from ppchow.specialfiber import VertexTuple, make_affine_pp


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
    a = make_affine_pp(F2, [x, x, x], 1)
    assert pio.affine_from_json(pio.affine_to_json(a), F2) == a
    t = VertexTuple(F2, 0, {(Q(0),): constant_pp(vertex_chart(F2, (Q(0),)).fan, 1)})
    assert pio.vertex_tuple_from_json(pio.vertex_tuple_to_json(t), F2) == t
    z = InvariantCycle(1, 1, {((Q(1),),): Q(3, 2)})
    assert pio.cycle_from_json(pio.cycle_to_json(z), 1) == z


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
    pio.dump_json(pio.cycle_to_json(InvariantCycle(1, 1, {((Q(1),),): 1})), str(cyc))
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
    assert "FacetMismatch" in out["files"][0]["error"]


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
