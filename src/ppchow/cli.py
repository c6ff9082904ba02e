"""Batch front end: validate inputs, run computations and the check suites.

Every file a command names is read by :func:`ppchow.io.read`, which refuses
a file of another kind.  Exit codes: 0 success, 1 check failure, 2 input
error, 3 internal assertion (a violated structural identity, which is always
a bug).  All output is JSON; reports are deterministic and stable under
re-runs.
"""

import argparse
import json
import sys

from . import io as pio
from .errors import InputError, InternalIdentityError, PPChowError
from .limits import (degree_current, delta_current, green_from_lifting,
                     is_green, tower_stabilization)
from .cycles import closure_class
from .polyhedra import cone_over, refines, star_subdivision
from .ppfan import equivariant_degree, graded_basis
from .qlinalg import rat
from .specialfiber import (beta, ddc_model, dim_affine_pp, from_vertex_tuple,
                           homology_presentation)


def _emit(data, out):
    text = pio.dump_json(data, out)
    if out is None:
        print(text)


def cmd_validate(args):
    report = []
    ok = True
    complexes = {}
    for path in args.paths:
        entry = {"path": path}
        try:
            kind, data = pio.kind_of(path, complexes)
            entry["kind"] = kind
            if kind is None:
                raise InputError("unrecognized file kind")
            value = pio.read(path, kind, data=data, complexes=complexes)
            if kind == "complex":
                entry["complete"] = value.is_complete()
                entry["regular"] = value.is_regular()
                entry["vertices"] = len(value.vertices)
            elif kind == "tower":
                entry["models"] = len(value)
            entry["valid"] = True
        except (PPChowError, OSError, json.JSONDecodeError) as exc:
            entry["valid"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
            ok = False
        report.append(entry)
    _emit({"files": report}, args.out)
    return 0 if ok else 2


def cmd_basis(args):
    pc = pio.read(args.complex, "complex")
    try:
        k = pio._int(args.degree, "degree")
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.which == "pp-cone":
        basis = graded_basis(cone_over(pc).fan, k)
        out = {"dimension": len(basis),
               "basis": [pio.pp_to_json(b) for b in basis]}
    elif args.which == "affine":
        dim, basis = dim_affine_pp(pc, k)
        out = {"dimension": dim, "basis": [pio.affine_to_json(b) for b in basis]}
    elif args.which == "homology":
        hp = homology_presentation(pc, k)
        out = {"dimension": hp["dim"],
               "vertex_layer": hp["vertex_dim"], "gamma_rank": hp["gamma_rank"],
               "basis": [pio.vertex_tuple_to_json(b.tuple) for b in hp["basis"]]}
    else:
        raise InputError(f"unknown basis kind {args.which}")
    _emit(out, args.out)
    return 0


def cmd_ddc(args):
    complexes = {}
    pc = pio.read(args.complex, "complex", complexes=complexes)
    t = pio.read(args.tuple, "vertex_tuple", pc, complexes=complexes)
    result = from_vertex_tuple(ddc_model(t))
    _emit(pio.affine_to_json(result), args.out)
    return 0


def cmd_delta(args):
    chain = pio.read(args.chain, "tower").truncate(args.depth)
    cycle = pio.read(args.cycle, "cycle", chain)
    d = delta_current(chain, cycle)
    out = {"models": [pio.affine_to_json(d.value(i)) for i in d.indices()],
           "stabilizes_at": tower_stabilization(d)}
    _emit(out, args.out)
    return 0


def cmd_green(args):
    chain = pio.read(args.chain, "tower").truncate(args.depth)
    cycle = pio.read(args.cycle, "cycle", chain)
    start = args.start
    lifting = closure_class(chain.model(start), cycle)
    g = green_from_lifting(chain, start, lifting, cycle)
    cert = is_green(g, cycle)
    out = {"values": [pio.vertex_tuple_to_json(g.value(i)) for i in g.indices()],
           "green_certificate": None if cert is None else pio.affine_to_json(cert.form)}
    _emit(out, args.out)
    return 0


def cmd_push(args):
    complexes = {}
    source = pio.read(args.source, "complex", complexes=complexes)
    target = pio.read(args.target, "complex", complexes=complexes)
    m = refines(source, target)
    if m is None:
        raise InputError("source does not refine target")
    a = pio.read(args.affine, "affine", source, complexes=complexes)
    _emit(pio.affine_to_json(beta(m, a)), args.out)
    return 0


def cmd_degree(args):
    if args.chain and args.cycle:
        chain = pio.read(args.chain, "tower").truncate(args.depth)
        cycle = pio.read(args.cycle, "cycle", chain)
        d = delta_current(chain, cycle)
        value = degree_current(d)
    elif args.complex and args.pp:
        complexes = {}
        pc = pio.read(args.complex, "complex", complexes=complexes)
        f = pio.read(args.pp, "pp", pc, complexes=complexes)
        value = equivariant_degree(f.fan, f)
    else:
        raise InputError("degree needs --chain and --cycle, or --complex and --pp")
    _emit({"degree": pio.poly_to_json(value)}, args.out)
    return 0


def cmd_refine(args):
    pc = pio.read(args.complex, "complex")
    try:
        point = [rat(x) for x in args.point.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--point needs comma-separated rationals: {exc}") from exc
    out = star_subdivision(pc, point=point)
    _emit(pio.complex_to_json(out), args.out)
    return 0


def cmd_check(args):
    from . import checks
    results = []
    if args.suite in ("acceptance", "all"):
        results.extend(checks.run_acceptance(seed=args.seed))
    if args.suite in ("core", "all"):
        results.extend(checks.run_core(seed=args.seed))
    for r in results:
        print(r.line())
    report = {"suite": args.suite, "seed": args.seed,
              "results": [r.as_dict() for r in results],
              "pass": all(r.passed for r in results)}
    if args.out:
        pio.dump_json(report, args.out)
    return 0 if report["pass"] else 1


def build_parser():
    p = argparse.ArgumentParser(prog="ppchow",
                                description="piecewise-polynomial Chow calculus")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse and validate input files")
    v.add_argument("paths", nargs="+")
    v.set_defaults(fn=cmd_validate)

    b = sub.add_parser("basis", help="graded bases and dimensions")
    b.add_argument("--complex", required=True)
    b.add_argument("--degree", type=int, required=True)
    b.add_argument("--which", choices=["pp-cone", "affine", "homology"],
                   default="affine")
    b.set_defaults(fn=cmd_basis)

    d = sub.add_parser("ddc", help="model-level dd^c of a vertex tuple")
    d.add_argument("--complex", required=True)
    d.add_argument("--tuple", required=True)
    d.set_defaults(fn=cmd_ddc)

    de = sub.add_parser("delta", help="delta current of a horizontal cycle")
    de.add_argument("--chain", required=True)
    de.add_argument("--cycle", required=True)
    de.add_argument("--depth", type=int, default=3)
    de.set_defaults(fn=cmd_delta)

    g = sub.add_parser("green", help="Green current from the closure lifting")
    g.add_argument("--chain", required=True)
    g.add_argument("--cycle", required=True)
    g.add_argument("--start", type=int, default=0)
    g.add_argument("--depth", type=int, default=3)
    g.set_defaults(fn=cmd_green)

    pu = sub.add_parser("push", help="pushforward of an affine PP function")
    pu.add_argument("--source", required=True)
    pu.add_argument("--target", required=True)
    pu.add_argument("--affine", required=True)
    pu.set_defaults(fn=cmd_push)

    dg = sub.add_parser("degree", help="equivariant degree")
    dg.add_argument("--chain")
    dg.add_argument("--cycle")
    dg.add_argument("--complex")
    dg.add_argument("--pp")
    dg.add_argument("--depth", type=int, default=3)
    dg.set_defaults(fn=cmd_degree)

    rf = sub.add_parser("refine", help="stellar subdivision at a point")
    rf.add_argument("--complex", required=True)
    rf.add_argument("--point", required=True, help="comma-separated rationals")
    rf.set_defaults(fn=cmd_refine)

    ck = sub.add_parser("check", help="run the invariant and acceptance suites")
    ck.add_argument("--suite", choices=["core", "acceptance", "all"], default="all")
    ck.add_argument("--seed", type=int, default=0)
    ck.set_defaults(fn=cmd_check)
    for parser in sub.choices.values():
        parser.add_argument("--out")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InternalIdentityError as exc:
        print(json.dumps({"internal_error": str(exc)}), file=sys.stderr)
        return 3
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"input_error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
