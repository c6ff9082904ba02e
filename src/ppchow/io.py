"""JSON serialization of the external data formats.

Rationals travel as "p/q" strings with the denominator omitted when 1.
Complexes list a point table plus per-cell vertex indices and rays; face
closure may be omitted and is recomputed.  Piecewise data indexes the
canonical maximal-cone (or maximal-cell) lists, which are sorted by their
generator matrices, so files are stable across runs.
"""

import functools
import json

from .cycles import InvariantCycle
from .errors import DegreeMismatch, InputError
from .polyhedra import PolyComplex, Polyhedron
from .polyring import HomogPoly
from .ppfan import PPFunction
from .qlinalg import rat, rat_str, vec
from .specialfiber import AffinePP, VertexTuple
from .polyhedra import vertex_chart


def _reads(kind):
    """Raise a missing key or a value of the wrong shape or type, met while
    reading a file of the given kind, as an :class:`InputError`."""
    def wrap(fn):
        @functools.wraps(fn)
        def read(*args):
            try:
                return fn(*args)
            except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                raise InputError(f"malformed {kind} file: {exc}") from exc
        return read
    return wrap


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
    rank = int(data["rank"])
    points = [vector_from_json(p) for p in data["points"]]
    cells = []
    for c in data["cells"]:
        verts = [points[i] for i in c["vertices"]]
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
        expo = tuple(int(x) for x in key.split(",")) if key else ()
        coeffs[expo] = rat(val)
    return HomogPoly(dim, int(data["degree"]), coeffs)


def pp_to_json(f):
    return {"degree": f.degree,
            "pieces": [{"cone": i, "poly": poly_to_json(p)}
                       for i, p in enumerate(f.pieces) if not p.is_zero()]}


@_reads("piecewise")
def pp_from_json(data, fan):
    degree = int(data["degree"])
    pieces = [HomogPoly.zero(fan.rank, degree) for _ in fan.maximal]
    for item in data.get("pieces", []):
        pieces[int(item["cone"])] = poly_from_json(item["poly"], fan.rank)
    return PPFunction(fan, degree, pieces, validate=True)


def affine_to_json(a):
    pc = a.complex
    return {"degree": a.degree,
            "cells": [{"cell": pos, "poly": poly_to_json(a.cell_polys[i])}
                      for pos, i in enumerate(pc.maximal)
                      if not a.cell_polys[i].is_zero()]}


@_reads("piecewise")
def affine_from_json(data, pc):
    degree = int(data["degree"])
    polys = {}
    for item in data.get("cells", []):
        polys[pc.maximal[int(item["cell"])]] = poly_from_json(item["poly"], pc.rank)
    return AffinePP(pc, degree, polys, validate=True)


def vertex_tuple_to_json(t):
    pc = t.complex
    return {"degree": t.degree,
            "vertices": [{"vertex": vector_to_json(v),
                          "pp": pp_to_json(t.entries[v])}
                         for v in pc.vertices if not t.entries[v].is_zero()]}


@_reads("piecewise")
def vertex_tuple_from_json(data, pc):
    degree = int(data["degree"])
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


def cycle_to_json(z):
    return {"codim": z.codim,
            "terms": [{"cone": [vector_to_json(r) for r in rays],
                       "coeff": rat_str(c)}
                      for rays, c in sorted(z.terms.items())]}


@_reads("cycle")
def cycle_from_json(data, rank):
    terms = {}
    for item in data.get("terms", []):
        rays = tuple(vector_from_json(r) for r in item["cone"])
        terms[rays] = rat(item["coeff"])
    return InvariantCycle(rank, int(data["codim"]), terms)


def detect_kind(data):
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
