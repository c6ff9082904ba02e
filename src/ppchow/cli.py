"""Batch front end: validate inputs, run computations and the check suites.

Exit codes: 0 success, 1 check failure, 2 input error, 3 internal assertion
(a violated structural identity, which is always a bug).  All output is
JSON; reports are deterministic and stable under re-runs.
"""

import argparse
import json
import os
import sys

from . import io as pio
from .errors import InputError, InternalIdentityError, PPChowError
from .limits import (ModelChain, degree_current, delta_current,
                     green_from_lifting, is_green, tower_stabilization)
from .cycles import closure_class
from .polyhedra import cone_over, refines, star_subdivision
from .ppfan import equivariant_degree, graded_basis
from .qlinalg import rat
from .specialfiber import (beta, ddc_model, dim_affine_pp, from_vertex_tuple,
                           homology_presentation)


def _load_complex(path):
    return pio.complex_from_json(pio.load_json(path))


def _beside(path, ref):
    """A path named inside the file at ``path``: a relative one is read
    against that file's directory."""
    return os.path.join(os.path.dirname(path), ref)


def _emit(data, out):
    text = pio.dump_json(data, out)
    if out is None:
        print(text)


def cmd_validate(args):
    report = []
    ok = True
    for path in args.paths:
        entry = {"path": path}
        try:
            data = pio.load_json(path)
            kind = pio.detect_kind(data)
            entry["kind"] = kind
            if kind == "complex":
                pc = pio.complex_from_json(data)
                entry["complete"] = pc.is_complete()
                entry["regular"] = pc.is_regular()
                entry["vertices"] = len(pc.vertices)
            elif kind == "polynomial":
                pio.poly_from_json(data, pio.poly_dim(data))
            elif kind == "cycle":
                pio.cycle_from_json(data, pio.cycle_rank(data))
            elif kind in ("pp", "affine", "vertex_tuple"):
                ref = data.get("complex")
                if ref is None:
                    raise InputError("piecewise file needs a 'complex' path reference")
                pc = _load_complex(_beside(path, ref))
                if kind == "pp":
                    pio.pp_from_json(data, cone_over(pc).fan)
                elif kind == "affine":
                    pio.affine_from_json(data, pc)
                else:
                    pio.vertex_tuple_from_json(data, pc)
            elif kind == "tower":
                entry["models"] = len(_load_chain(path))
            else:
                raise InputError("unrecognized file kind")
            entry["valid"] = True
        except (PPChowError, OSError, json.JSONDecodeError) as exc:
            entry["valid"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
            ok = False
        report.append(entry)
    _emit({"files": report}, args.out)
    return 0 if ok else 2


def cmd_basis(args):
    pc = _load_complex(args.complex)
    k = args.degree
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
    pc = _load_complex(args.complex)
    t = pio.vertex_tuple_from_json(pio.load_json(args.tuple), pc)
    result = from_vertex_tuple(ddc_model(t))
    _emit(pio.affine_to_json(result), args.out)
    return 0


def _load_chain(path):
    """The chain a chain file lists; relative model paths are read against
    the chain file's directory."""
    data = pio.load_json(path)
    models = data.get("models") if isinstance(data, dict) else None
    if not isinstance(models, list) or not models:
        raise InputError("chain file needs a nonempty 'models' list")
    refs = [m.get("complex") if isinstance(m, dict) else None for m in models]
    if not all(isinstance(ref, str) for ref in refs):
        raise InputError("every chain model needs a 'complex' path")
    return ModelChain([_load_complex(_beside(path, ref)) for ref in refs])


def _load_cycle(path, rank):
    return pio.cycle_from_json(pio.load_json(path), rank)


def cmd_delta(args):
    chain = _load_chain(args.chain).truncate(args.depth)
    cycle = _load_cycle(args.cycle, chain.models[0].rank)
    d = delta_current(chain, cycle)
    out = {"models": [pio.affine_to_json(d.value(i)) for i in d.indices()],
           "stabilizes_at": tower_stabilization(d)}
    _emit(out, args.out)
    return 0


def cmd_green(args):
    chain = _load_chain(args.chain).truncate(args.depth)
    cycle = _load_cycle(args.cycle, chain.models[0].rank)
    start = args.start
    pc = chain.models[start]
    lifting = closure_class(pc, cycle)
    g = green_from_lifting(chain, start, lifting, cycle)
    cert = is_green(g, cycle)
    out = {"values": [pio.vertex_tuple_to_json(g.value(i)) for i in g.indices()],
           "green_certificate": None if cert is None else pio.affine_to_json(cert.form)}
    _emit(out, args.out)
    return 0


def cmd_push(args):
    source = _load_complex(args.source)
    target = _load_complex(args.target)
    m = refines(source, target)
    if m is None:
        raise InputError("source does not refine target")
    a = pio.affine_from_json(pio.load_json(args.affine), source)
    _emit(pio.affine_to_json(beta(m, a)), args.out)
    return 0


def cmd_degree(args):
    if args.chain:
        chain = _load_chain(args.chain).truncate(args.depth)
        cycle = _load_cycle(args.cycle, chain.models[0].rank)
        d = delta_current(chain, cycle)
        value = degree_current(d)
    else:
        pc = _load_complex(args.complex)
        fan = cone_over(pc).fan
        f = pio.pp_from_json(pio.load_json(args.pp), fan)
        value = equivariant_degree(fan, f)
    _emit({"degree": pio.poly_to_json(value)}, args.out)
    return 0


def cmd_refine(args):
    pc = _load_complex(args.complex)
    point = [rat(x) for x in args.point.split(",")]
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
    v.add_argument("--out")
    v.set_defaults(fn=cmd_validate)

    b = sub.add_parser("basis", help="graded bases and dimensions")
    b.add_argument("--complex", required=True)
    b.add_argument("--degree", type=int, required=True)
    b.add_argument("--which", choices=["pp-cone", "affine", "homology"],
                   default="affine")
    b.add_argument("--out")
    b.set_defaults(fn=cmd_basis)

    d = sub.add_parser("ddc", help="model-level dd^c of a vertex tuple")
    d.add_argument("--complex", required=True)
    d.add_argument("--tuple", required=True)
    d.add_argument("--out")
    d.set_defaults(fn=cmd_ddc)

    de = sub.add_parser("delta", help="delta current of a horizontal cycle")
    de.add_argument("--chain", required=True)
    de.add_argument("--cycle", required=True)
    de.add_argument("--depth", type=int, default=3)
    de.add_argument("--out")
    de.set_defaults(fn=cmd_delta)

    g = sub.add_parser("green", help="Green current from the closure lifting")
    g.add_argument("--chain", required=True)
    g.add_argument("--cycle", required=True)
    g.add_argument("--start", type=int, default=0)
    g.add_argument("--depth", type=int, default=3)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_green)

    pu = sub.add_parser("push", help="pushforward of an affine PP function")
    pu.add_argument("--source", required=True)
    pu.add_argument("--target", required=True)
    pu.add_argument("--affine", required=True)
    pu.add_argument("--out")
    pu.set_defaults(fn=cmd_push)

    dg = sub.add_parser("degree", help="equivariant degree")
    dg.add_argument("--chain")
    dg.add_argument("--cycle")
    dg.add_argument("--complex")
    dg.add_argument("--pp")
    dg.add_argument("--depth", type=int, default=3)
    dg.add_argument("--out")
    dg.set_defaults(fn=cmd_degree)

    rf = sub.add_parser("refine", help="stellar subdivision at a point")
    rf.add_argument("--complex", required=True)
    rf.add_argument("--point", required=True, help="comma-separated rationals")
    rf.add_argument("--out")
    rf.set_defaults(fn=cmd_refine)

    ck = sub.add_parser("check", help="run the invariant and acceptance suites")
    ck.add_argument("--suite", choices=["core", "acceptance", "all"], default="all")
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--out")
    ck.set_defaults(fn=cmd_check)
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
