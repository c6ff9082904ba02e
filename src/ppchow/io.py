"""JSON serialization of the external data formats, and the one reader of
input files.

Rationals travel as "p/q" strings with the denominator omitted when 1.
Complexes list a point table plus per-cell vertex indices and rays; face
closure may be omitted and is recomputed.  Piecewise data indexes the
canonical maximal-cone (or maximal-cell) lists, which are sorted by their
generator matrices, so files are stable across runs.  Chains list their
models coarse to fine, each by the path of its complex.

A file's keys give its kind (:func:`detect_kind`), and :func:`read` reads
every input file: it refuses a file whose keys give another kind or none,
resolves the paths a file names against that file's directory, and reads
the file with its kind's one reader.
"""

import functools
import json
import os

from .cycles import InvariantCycle
from .errors import DegreeMismatch, InputError
from .limits import ModelChain
from .polyhedra import PolyComplex, Polyhedron, cone_over, vertex_chart
from .polyring import HomogPoly
from .ppfan import PPFunction
from .qlinalg import rat, rat_str, vec
from .specialfiber import AffinePP, VertexTuple


def _reads(kind):
    """Raise a missing key or a value of the wrong shape or type, met while
    reading a file of the given kind, as an :class:`InputError`."""
    def wrap(fn):
        @functools.wraps(fn)
        def read(*args):
            try:
                return fn(*args)
            except (AttributeError, KeyError, IndexError, TypeError, ValueError,
                    ZeroDivisionError) as exc:
                raise InputError(f"malformed {kind} file: {exc}") from exc
        return read
    return wrap


MAX_DEGREE = 20


def _int(x, field, count=None):
    """A JSON integer read from ``field``: nonnegative, below ``count`` when
    it indexes a list of that length, and at most MAX_DEGREE for a degree,
    which every basis and transfer enumerates monomials of."""
    if type(x) is not int or x < 0 or (count is not None and x >= count):
        bound = "a nonnegative integer" if count is None else f"an index in [0, {count})"
        raise ValueError(f"{field} must be {bound}, got {json.dumps(x, default=repr)}")
    if field == "degree" and x > MAX_DEGREE:
        raise ValueError(f"degree {x} is past the limit MAX_DEGREE = {MAX_DEGREE}")
    return x


def vector_to_json(v):
    return [rat_str(x) for x in v]


def vector_from_json(data):
    return vec([rat(x) for x in data])


def complex_to_json(pc):
    points = []
    index = {}

    def point_id(p):
        if p not in index:
            index[p] = len(points)
            points.append(vector_to_json(p))
        return index[p]

    cells = []
    for i in pc.maximal:
        cell = pc.cells[i]
        cells.append({"vertices": [point_id(v) for v in cell.vertices],
                      "rays": [vector_to_json(r) for r in cell.rays]})
    return {"rank": pc.rank, "points": points, "cells": cells}


@_reads("complex")
def complex_from_json(data):
    rank = _int(data["rank"], "rank")
    points = [vector_from_json(p) for p in data["points"]]
    cells = []
    for c in data["cells"]:
        verts = [points[_int(i, "vertex", len(points))] for i in c["vertices"]]
        rays = [vector_from_json(r) for r in c.get("rays", [])]
        cells.append(Polyhedron(rank, verts, rays))
    return PolyComplex(rank, cells)


def poly_to_json(p):
    return {"degree": p.degree,
            "coeffs": {",".join(str(e) for e in expo): rat_str(c)
                       for expo, c in sorted(p.coeffs.items())}}


@_reads("polynomial")
def poly_from_json(data, dim):
    coeffs = {}
    for key, val in data.get("coeffs", {}).items():
        digits = key.split(",") if key else []
        if not all(x.isascii() and x.isdigit() for x in digits):
            raise ValueError(f"exponent key {key!r} is not comma-separated digits")
        coeffs[tuple(map(int, digits))] = rat(val)
    return HomogPoly(dim, _int(data["degree"], "degree"), coeffs)


def pp_to_json(f):
    return {"degree": f.degree,
            "pieces": [{"cone": i, "poly": poly_to_json(p)}
                       for i, p in enumerate(f.pieces) if not p.is_zero()]}


@_reads("piecewise")
def pp_from_json(data, fan):
    degree = _int(data["degree"], "degree")
    pieces = [HomogPoly.zero(fan.rank, degree) for _ in fan.maximal]
    for item in data.get("pieces", []):
        pieces[_int(item["cone"], "cone", len(pieces))] = poly_from_json(item["poly"], fan.rank)
    return PPFunction(fan, degree, pieces)


def affine_to_json(a):
    return {"degree": a.degree,
            "cells": [{"cell": pos, "poly": poly_to_json(p)}
                      for pos, p in enumerate(a.pieces) if not p.is_zero()]}


@_reads("piecewise")
def affine_from_json(data, pc):
    degree = _int(data["degree"], "degree")
    polys = {}
    for item in data.get("cells", []):
        cell = _int(item["cell"], "cell", len(pc.maximal))
        polys[pc.maximal[cell]] = poly_from_json(item["poly"], pc.rank)
    return AffinePP(pc, degree, polys)


def vertex_tuple_to_json(t):
    return {"degree": t.degree,
            "vertices": [{"vertex": vector_to_json(v), "pp": pp_to_json(f)}
                         for v, f in zip(t.complex.vertices, t.pieces) if not f.is_zero()]}


@_reads("piecewise")
def vertex_tuple_from_json(data, pc):
    degree = _int(data["degree"], "degree")
    entries = {}
    for item in data.get("vertices", []):
        v = vector_from_json(item["vertex"])
        chart = vertex_chart(pc, v)
        entries[v] = pp_from_json(item["pp"], chart.fan)
        if entries[v].degree != degree:
            raise DegreeMismatch(f"the entry at vertex ({', '.join(map(rat_str, v))}) has "
                                 f"degree {entries[v].degree}, not the file's degree {degree}")
    return VertexTuple(pc, degree, entries)


@_reads("polynomial")
def poly_dim(data):
    """The number of variables a polynomial file's exponents have."""
    return max((len(k.split(",")) for k in data.get("coeffs", {})), default=0)


@_reads("cycle")
def cycle_rank(data):
    """The length of the rays a cycle file lists (0 when it lists none)."""
    return max((len(r) for t in data.get("terms", []) for r in t["cone"]), default=0)


@_reads("cycle")
def cycle_from_json(data, rank):
    terms = {}
    for item in data.get("terms", []):
        rays = tuple(vector_from_json(r) for r in item["cone"])
        terms[rays] = rat(item["coeff"])
    return InvariantCycle(rank, _int(data["codim"], "codim"), terms)


def detect_kind(data):
    """The kind a file's keys give it, or None."""
    if not isinstance(data, dict):
        return None
    if "cells" in data and "rank" in data:
        return "complex"
    if "coeffs" in data:
        return "polynomial"
    if "terms" in data and "codim" in data:
        return "cycle"
    if "pieces" in data:
        return "pp"
    if "vertices" in data and "degree" in data:
        return "vertex_tuple"
    if "cells" in data and "degree" in data:
        return "affine"
    if "models" in data:
        return "tower"
    return None


def read(path, kind, domain=None, data=None, complexes=None):
    """What the file at ``path``, a file of the given kind, holds.

    A file whose keys give it another kind or none is refused
    (:class:`InputError`).  A piecewise file ("pp", "affine" or
    "vertex_tuple") is read on ``domain``, a complex, or else on the complex
    its "complex" names.  A file that names a complex the command does not
    read as ``domain`` (one that is not the same model) is refused.  A cycle
    is read at the rank of ``domain``, a chain, or else at its own rank; a
    chain file ("tower") as the chain of the complexes its models name.

    ``data`` is the file's parsed JSON when the caller has parsed it, so a
    file is parsed once.  ``complexes``, a dict one command passes to each of
    its reads, keeps every complex read so far by its real path, so a
    complex that several files name is read once per command.
    """
    complexes = {} if complexes is None else complexes
    key = os.path.realpath(path)
    if kind == "complex" and key in complexes:
        return complexes[key]
    data = load_json(path) if data is None else data
    found = detect_kind(data)
    if found != kind:
        what = f"of kind {found}" if found else "of no known kind"
        raise InputError(f"malformed {kind} file: by its keys it is {what}")
    if kind == "complex":
        complexes[key] = complex_from_json(data)
        return complexes[key]
    if kind == "polynomial":
        return poly_from_json(data, poly_dim(data))
    if kind == "cycle":
        return cycle_from_json(data, cycle_rank(data) if domain is None else domain.models[0].rank)
    if kind == "tower":
        models = data["models"]
        if not isinstance(models, list) or not models:
            raise InputError("chain file needs a nonempty 'models' list")
        if not all(isinstance(m, dict) and m.get("complex") is not None for m in models):
            raise InputError("every chain model needs a 'complex' path")
        return ModelChain([read(_beside(path, m["complex"], kind), "complex", complexes=complexes)
                           for m in models])
    ref = data.get("complex")
    if ref is not None:
        named = read(_beside(path, ref, kind), "complex", complexes=complexes)
        if domain is not None and named is not domain and not named.same_as(domain):
            raise InputError(f"malformed {kind} file: it names the complex {ref}, "
                             "not the one the command reads")
        domain = named if domain is None else domain
    elif domain is None:
        raise InputError("piecewise file needs a 'complex' path reference")
    if kind == "pp":
        return pp_from_json(data, cone_over(domain).fan)
    return (affine_from_json if kind == "affine" else vertex_tuple_from_json)(data, domain)


def kind_of(path, complexes):
    """(the kind the keys of the file at ``path`` give it, its parsed JSON);
    a complex already in ``complexes`` is not parsed again (None)."""
    if os.path.realpath(path) in complexes:
        return "complex", None
    data = load_json(path)
    return detect_kind(data), data


def _beside(path, ref, kind):
    """A path named inside the file at ``path``, of the given kind: a
    relative one is read against that file's directory."""
    if not isinstance(ref, str):
        raise InputError(f"malformed {kind} file: 'complex' must be a path, got {json.dumps(ref)}")
    return os.path.join(os.path.dirname(path), ref)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def dump_json(data, path=None):
    text = json.dumps(data, indent=1, sort_keys=True)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text
